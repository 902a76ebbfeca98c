// Framing and failure-mode tests for the socket-backed Channel: whole-
// message delivery over partial reads/writes, zero-length frames, peer
// disconnect (clean and mid-message), receive timeouts, concurrent senders
// (the serve fan-out pattern), and listener lifecycle.
//
// Most tests run over a socketpair so the raw peer end can inject partial
// frames and abrupt closes; listener/connect tests use real TCP on
// 127.0.0.1 with an ephemeral port.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "split/tcp_channel.hpp"

namespace ens::split {
namespace {

/// Connected stream-socket pair; wrap either end in a TcpChannel or drive
/// it raw to inject malformed frames.
std::pair<int, int> stream_pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return {fds[0], fds[1]};
}

void write_raw(int fd, const void* data, std::size_t size) {
    const char* bytes = static_cast<const char*>(data);
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n = ::send(fd, bytes + sent, size - sent, 0);
        ASSERT_GT(n, 0);
        sent += static_cast<std::size_t>(n);
    }
}

ErrorCode thrown_code(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const Error& e) {
        return e.code();
    } catch (...) {
        ADD_FAILURE() << "expected ens::Error";
        return ErrorCode::generic;
    }
    ADD_FAILURE() << "expected an exception";
    return ErrorCode::generic;
}

TEST(TcpChannel, RoundTripBothDirectionsWithBinaryPayloads) {
    auto [a, b] = stream_pair();
    TcpChannel left(a);
    TcpChannel right(b);

    const std::string binary("ab\0cd\xff\x01", 7);
    left.send(binary);
    left.send("second");
    EXPECT_EQ(right.recv(), binary);
    EXPECT_EQ(right.recv(), "second");

    right.send("reply");
    EXPECT_EQ(left.recv(), "reply");

    // Payload-only accounting, identical to InProcChannel.
    EXPECT_EQ(left.stats().messages, 2u);
    EXPECT_EQ(left.stats().bytes, 13u);
    EXPECT_EQ(right.stats().messages, 1u);
    EXPECT_EQ(right.stats().bytes, 5u);
}

TEST(TcpChannel, ZeroLengthMessage) {
    auto [a, b] = stream_pair();
    TcpChannel left(a);
    TcpChannel right(b);
    left.send("");
    left.send("after-empty");
    EXPECT_EQ(right.recv(), "");
    EXPECT_EQ(right.recv(), "after-empty");
    EXPECT_EQ(left.stats().messages, 2u);
    EXPECT_EQ(left.stats().bytes, 11u);
}

// A multi-megabyte frame cannot fit one send/recv syscall on a stream
// socket, so this exercises the short-read/short-write loops end to end.
TEST(TcpChannel, LargeMessageSurvivesPartialReadsAndWrites) {
    auto [a, b] = stream_pair();
    TcpChannel left(a);
    TcpChannel right(b);

    std::string big(8 * 1024 * 1024, '\0');
    for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = static_cast<char>(i * 2654435761u >> 13);
    }
    // Sender in a thread: the socketpair buffer is far smaller than the
    // frame, so send blocks until the receiver drains.
    std::thread sender([&left, &big] { left.send(big); });
    const std::string received = right.recv();
    sender.join();
    ASSERT_EQ(received.size(), big.size());
    EXPECT_EQ(std::memcmp(received.data(), big.data(), big.size()), 0);
}

TEST(TcpChannel, CleanPeerCloseBetweenFramesIsTypedClosed) {
    auto [a, b] = stream_pair();
    TcpChannel right(b);
    {
        TcpChannel left(a);
        left.send("farewell");
    }  // destructor closes the peer
    EXPECT_EQ(right.recv(), "farewell");  // in-flight frame still drains
    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_closed);
    // Channel is dead from here on.
    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_closed);
    EXPECT_EQ(thrown_code([&] { right.send("x"); }), ErrorCode::channel_closed);
}

TEST(TcpChannel, PeerDisconnectMidMessageIsTypedClosed) {
    auto [a, b] = stream_pair();
    TcpChannel right(b);

    // Header promises 100 payload bytes; only 10 arrive before the close.
    unsigned char header[8] = {100, 0, 0, 0, 0, 0, 0, 0};
    write_raw(a, header, sizeof(header));
    write_raw(a, "0123456789", 10);
    ::close(a);

    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_closed);
}

TEST(TcpChannel, IdleRecvTimeoutIsRetryable) {
    auto [a, b] = stream_pair();
    TcpChannel left(a);
    TcpChannel right(b);
    right.set_recv_timeout(std::chrono::milliseconds(30));

    // Nothing of the next frame read yet: timeout, stream intact.
    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_timeout);

    left.send("late but fine");
    EXPECT_EQ(right.recv(), "late but fine");
}

TEST(TcpChannel, MidMessageTimeoutPoisonsTheChannel) {
    auto [a, b] = stream_pair();
    TcpChannel right(b);
    right.set_recv_timeout(std::chrono::milliseconds(30));

    // Header + partial payload, then silence: a retry would resume reading
    // mid-frame, so the channel must close itself.
    unsigned char header[8] = {64, 0, 0, 0, 0, 0, 0, 0};
    write_raw(a, header, sizeof(header));
    write_raw(a, "partial", 7);

    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_timeout);
    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_closed);
    ::close(a);
}

// A per-read wait alone only bounds each syscall: a peer trickling bytes
// just fast enough to renew it could stretch recv() forever. The whole-
// message deadline must cut that off near the configured cap.
TEST(TcpChannel, TricklingPeerCannotStretchRecvPastTimeout) {
    auto [a, b] = stream_pair();
    TcpChannel right(b);
    right.set_recv_timeout(std::chrono::milliseconds(60));

    std::atomic<bool> stop{false};
    std::thread trickler([&, a = a] {
        unsigned char header[8] = {255, 0, 0, 0, 0, 0, 0, 0};
        write_raw(a, header, sizeof(header));
        const unsigned char byte = 'x';
        while (!stop.load()) {
            if (::send(a, &byte, 1, MSG_NOSIGNAL) <= 0) {
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(15));
        }
    });

    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_timeout);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // Bounded by ~2x the cap; anything near the 255-byte trickle duration
    // (~4 s) would mean the deadline never fired.
    EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
    // Progress was mid-frame, so the stream is poisoned.
    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_closed);

    stop = true;
    trickler.join();
    ::close(a);
}

TEST(TcpChannel, ImplausibleFrameLengthIsIoError) {
    auto [a, b] = stream_pair();
    TcpChannel right(b);
    // 2^62 bytes: stream desync or a corrupt peer, never a feature map.
    unsigned char header[8] = {0, 0, 0, 0, 0, 0, 0, 0x40};
    write_raw(a, header, sizeof(header));
    EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::io_error);
    ::close(a);
}

TEST(TcpChannel, LocalCloseWakesBlockedReceiver) {
    auto [a, b] = stream_pair();
    TcpChannel left(a);
    TcpChannel right(b);
    std::thread receiver([&right] {
        EXPECT_EQ(thrown_code([&] { (void)right.recv(); }), ErrorCode::channel_closed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    right.close();
    receiver.join();
    (void)left;
}

// The serve fan-out sends one downlink message per body from pool workers;
// frames from concurrent senders must never interleave on the wire.
TEST(TcpChannel, ConcurrentSendersKeepFramesAtomic) {
    auto [a, b] = stream_pair();
    TcpChannel sender(a);
    TcpChannel receiver(b);

    constexpr int kThreads = 4;
    constexpr int kMessagesPerThread = 64;
    // Distinct sizes per thread so interleaved bytes would corrupt frames.
    const auto make_message = [](int thread_id, int i) {
        return std::string(static_cast<std::size_t>(1 + thread_id * 7 + (i % 5) * 131),
                           static_cast<char>('A' + thread_id));
    };

    // Drain concurrently: the socketpair buffer cannot hold all frames.
    std::vector<int> seen(kThreads, 0);
    std::thread drain([&] {
        for (int m = 0; m < kThreads * kMessagesPerThread; ++m) {
            const std::string message = receiver.recv();
            ASSERT_FALSE(message.empty());
            const int thread_id = message[0] - 'A';
            ASSERT_GE(thread_id, 0);
            ASSERT_LT(thread_id, kThreads);
            // Uniform fill proves the frame arrived whole.
            EXPECT_EQ(message.find_first_not_of(message[0]), std::string::npos);
            ++seen[thread_id];
        }
    });

    std::vector<std::thread> senders;
    for (int t = 0; t < kThreads; ++t) {
        senders.emplace_back([&, t] {
            for (int i = 0; i < kMessagesPerThread; ++i) {
                sender.send(make_message(t, i));
            }
        });
    }
    for (std::thread& thread : senders) {
        thread.join();
    }
    drain.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(seen[t], kMessagesPerThread) << "sender " << t;
    }
    EXPECT_EQ(sender.stats().messages,
              static_cast<std::uint64_t>(kThreads * kMessagesPerThread));
}

TEST(ChannelListener, EphemeralPortAcceptConnectRoundTrip) {
    ChannelListener listener(0);
    ASSERT_GT(listener.port(), 0);

    std::unique_ptr<TcpChannel> server_end;
    std::thread acceptor([&] { server_end = listener.accept(); });
    std::unique_ptr<TcpChannel> client_end = tcp_connect("127.0.0.1", listener.port());
    acceptor.join();
    ASSERT_NE(server_end, nullptr);

    client_end->send("over real tcp");
    EXPECT_EQ(server_end->recv(), "over real tcp");
    server_end->send("and back");
    EXPECT_EQ(client_end->recv(), "and back");
}

TEST(ChannelListener, CloseWakesBlockedAccept) {
    ChannelListener listener(0);
    std::thread acceptor([&] {
        EXPECT_EQ(thrown_code([&] { (void)listener.accept(); }), ErrorCode::channel_closed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    listener.close();
    acceptor.join();
    // Closed listener fails fast thereafter.
    EXPECT_EQ(thrown_code([&] { (void)listener.accept(); }), ErrorCode::channel_closed);
}

TEST(TcpConnect, RefusedConnectionIsIoError) {
    // Bind then immediately close to get a port that refuses connections.
    std::uint16_t dead_port = 0;
    {
        ChannelListener listener(0);
        dead_port = listener.port();
    }
    EXPECT_EQ(thrown_code([&] { (void)tcp_connect("127.0.0.1", dead_port); }),
              ErrorCode::io_error);
}

TEST(TcpConnect, TimeoutOverloadStillConnectsToLiveListener) {
    ChannelListener listener(0);
    std::unique_ptr<TcpChannel> server_end;
    std::thread acceptor([&] { server_end = listener.accept(); });
    std::unique_ptr<TcpChannel> client_end =
        tcp_connect("127.0.0.1", listener.port(), std::chrono::seconds(5));
    acceptor.join();
    ASSERT_NE(server_end, nullptr);
    client_end->send("bounded dial");
    EXPECT_EQ(server_end->recv(), "bounded dial");
}

TEST(TcpConnect, BlackholedConnectFailsTypedWithinTheDeadline) {
    // A locally manufactured blackhole (routed blackholes like RFC 5737
    // TEST-NET-1 are unreliable under NAT'd CI sandboxes that answer every
    // SYN): a listener with backlog 0 whose accept queue is already full
    // makes the kernel drop further SYNs, so the dialer just retransmits
    // into silence — exactly the case only the connect deadline can end.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(listener, /*backlog=*/0), 0);
    socklen_t addr_len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
    const std::uint16_t port = ntohs(addr.sin_port);

    // Saturate the accept queue: this connection completes its handshake
    // and sits unaccepted, filling the backlog-0 queue.
    std::unique_ptr<TcpChannel> filler = tcp_connect("127.0.0.1", port, std::chrono::seconds(5));

    const auto start = std::chrono::steady_clock::now();
    try {
        (void)tcp_connect("127.0.0.1", port, std::chrono::milliseconds(250));
        FAIL() << "connected through a saturated backlog?";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::channel_timeout) << e.what();
        // The timeout message names the dial target.
        EXPECT_NE(std::string(e.what()).find("127.0.0.1"), std::string::npos) << e.what();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // Bounded by the 250 ms budget, not the kernel's SYN retransmission
    // schedule (minutes); generous slack for CI scheduling.
    EXPECT_LT(elapsed, std::chrono::milliseconds(5000));
    ::close(listener);
}

TEST(TcpConnect, RefusedConnectionWithTimeoutStaysIoError) {
    std::uint16_t dead_port = 0;
    {
        ChannelListener listener(0);
        dead_port = listener.port();
    }
    // A refused connection is an answer, not a timeout: the typed code must
    // not degrade to channel_timeout just because a deadline was set.
    EXPECT_EQ(thrown_code([&] {
                  (void)tcp_connect("127.0.0.1", dead_port, std::chrono::seconds(5));
              }),
              ErrorCode::io_error);
}

}  // namespace
}  // namespace ens::split
