#include "split/tcp_channel.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "common/error.hpp"

namespace ens::split {

namespace {

// Longest one poll() in TcpChannel::wait_readable sleeps before it re-reads
// the recv cap: a cap set while a recv is blocked takes effect within this.
constexpr long long kRecvSliceMs = 100;

std::string errno_text(const char* what) {
    return std::string(what) + ": " + std::strerror(errno);
}

void encode_frame_header(std::uint64_t size, unsigned char out[kFrameHeaderBytes]) {
    for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
        out[i] = static_cast<unsigned char>((size >> (8 * i)) & 0xFF);
    }
}

}  // namespace

std::uint64_t decode_frame_header(const unsigned char in[kFrameHeaderBytes]) {
    std::uint64_t size = 0;
    for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
        size |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    }
    return size;
}

// ------------------------------------------------------------- TcpChannel

TcpChannel::TcpChannel(int fd) : fd_(fd) {
    if (fd_ < 0) {
        throw Error(ErrorCode::io_error, "TcpChannel: invalid socket fd");
    }
    const int one = 1;
    // Feature messages are latency-sensitive round trips; never Nagle-delay
    // them. Failure is non-fatal (e.g. socketpair in tests).
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpChannel::~TcpChannel() {
    close();
    (void)::close(fd_);
}

void TcpChannel::mark_closed() {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    closed_ = true;
}

void TcpChannel::close() {
    {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        if (closed_) {
            return;
        }
        closed_ = true;
    }
    // shutdown (not ::close) so a thread blocked in ::recv/::send wakes
    // immediately and the fd number cannot be recycled under it.
    (void)::shutdown(fd_, SHUT_RDWR);
}

void TcpChannel::set_recv_timeout(std::chrono::milliseconds timeout) {
    // No SO_RCVTIMEO: a socket samples that when a ::recv starts, so a recv
    // already blocked would never see a new cap. wait_readable re-reads
    // this on every poll() slice instead.
    recv_timeout_ms_.store(timeout.count());
}

void TcpChannel::write_frame(const Span* spans, std::size_t span_count) {
    // One sendmsg over all spans: the frame header (and a protocol tag)
    // never rides in its own TCP segment (TCP_NODELAY would ship it
    // immediately) and no span is copied into a staging buffer.
    std::size_t sent = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < span_count; ++i) {
        total += spans[i].size;
    }
    while (sent < total) {
        iovec iov[3];
        int iov_count = 0;
        // Skip fully-sent spans, then queue the partial remainder of the
        // first incomplete one plus everything after it.
        std::size_t skip = sent;
        for (std::size_t i = 0; i < span_count && iov_count < 3; ++i) {
            if (skip >= spans[i].size) {
                skip -= spans[i].size;
                continue;
            }
            iov[iov_count].iov_base = const_cast<unsigned char*>(spans[i].data + skip);
            iov[iov_count].iov_len = spans[i].size - skip;
            skip = 0;
            ++iov_count;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(iov_count);
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the
        // process with SIGPIPE.
        const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR) {
            continue;
        }
        const bool peer_gone = errno == EPIPE || errno == ECONNRESET;
        mark_closed();
        if (peer_gone) {
            throw Error(ErrorCode::channel_closed, "TcpChannel::send: peer disconnected");
        }
        throw Error(ErrorCode::io_error, errno_text("TcpChannel::send"));
    }
}

void TcpChannel::send_spans(std::string_view header, std::string_view payload,
                            std::size_t billed) {
    const std::lock_guard<std::mutex> lock(send_mutex_);
    {
        const std::lock_guard<std::mutex> state(state_mutex_);
        if (closed_) {
            throw Error(ErrorCode::channel_closed, "TcpChannel::send on closed channel");
        }
    }
    unsigned char frame_header[kFrameHeaderBytes];
    encode_frame_header(header.size() + payload.size(), frame_header);
    const Span spans[3] = {
        {frame_header, sizeof(frame_header)},
        {reinterpret_cast<const unsigned char*>(header.data()), header.size()},
        {reinterpret_cast<const unsigned char*>(payload.data()), payload.size()},
    };
    // Billed bytes only — framing overhead is a transport detail, and the
    // counters must match InProcChannel for byte-parity tests. Billed
    // BEFORE the write: once bytes hit the wire the peer's whole reply can
    // race ahead of this thread, and a caller observing that reply must
    // already see the send counted. (A send that fails mid-write still
    // counts — the channel is poisoned at that point anyway.)
    record_message(billed);
    write_frame(spans, 3);
}

void TcpChannel::send(std::string message) {
    send_spans({}, message, message.size());
}

void TcpChannel::send_parts(std::string_view header, std::string_view payload) {
    send_spans(header, payload, payload.size());
}

void TcpChannel::wait_readable(std::chrono::steady_clock::time_point started, bool mid_frame) {
    for (;;) {
        const long long cap_ms = recv_timeout_ms_.load();
        long long wait_ms = kRecvSliceMs;
        if (cap_ms > 0) {
            const long long left_ms =
                std::chrono::ceil<std::chrono::milliseconds>(
                    started + std::chrono::milliseconds(cap_ms) - std::chrono::steady_clock::now())
                    .count();
            if (left_ms <= 0) {
                if (!mid_frame) {
                    // Idle timeout between frames: retryable, stream intact.
                    throw Error(ErrorCode::channel_timeout, "TcpChannel::recv timed out");
                }
                // Part of a frame was consumed (or a peer is trickling
                // one); a retry would read from the middle of it. Poison
                // the channel.
                close();
                throw Error(ErrorCode::channel_timeout,
                            "TcpChannel::recv timed out mid-message; channel closed "
                            "(frame stream desynced)");
            }
            wait_ms = std::min(left_ms, kRecvSliceMs);
        }
        // Data, EOF, a socket error or a local close() (its shutdown wakes
        // poll too): the caller's next ::recv reports which.
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, static_cast<int>(wait_ms));
        if (ready > 0) {
            return;
        }
        if (ready < 0 && errno != EINTR) {
            throw Error(ErrorCode::io_error, errno_text("TcpChannel::recv: poll"));
        }
    }
}

void TcpChannel::read_all(unsigned char* data, std::size_t size, std::size_t frame_offset,
                          std::chrono::steady_clock::time_point started) {
    std::size_t got = 0;
    while (got < size) {
        // MSG_DONTWAIT: bytes already buffered cost one syscall; only an
        // empty socket waits, in wait_readable, under the recv cap.
        const ssize_t n = ::recv(fd_, data + got, size - got, MSG_DONTWAIT);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        const bool mid_frame = frame_offset + got > 0;
        if (n == 0) {
            mark_closed();
            throw Error(ErrorCode::channel_closed,
                        mid_frame ? "TcpChannel::recv: peer closed mid-message"
                                  : "TcpChannel::recv: peer closed the connection");
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            wait_readable(started, mid_frame);
            continue;
        }
        const bool was_closed = [this] {
            const std::lock_guard<std::mutex> lock(state_mutex_);
            return closed_;
        }();
        const bool peer_gone = errno == ECONNRESET || errno == EPIPE;
        mark_closed();
        if (was_closed || peer_gone) {
            throw Error(ErrorCode::channel_closed,
                        was_closed ? "TcpChannel::recv on closed channel"
                                   : "TcpChannel::recv: connection reset by peer");
        }
        throw Error(ErrorCode::io_error, errno_text("TcpChannel::recv"));
    }
}

std::string TcpChannel::recv() {
    const std::lock_guard<std::mutex> lock(recv_mutex_);
    {
        const std::lock_guard<std::mutex> state(state_mutex_);
        if (closed_) {
            throw Error(ErrorCode::channel_closed, "TcpChannel::recv on closed channel");
        }
    }
    // The cap bounds the whole message from here, so a peer trickling a
    // frame byte by byte cannot stretch recv() past it either.
    const auto started = std::chrono::steady_clock::now();
    unsigned char header[kFrameHeaderBytes];
    read_all(header, sizeof(header), 0, started);
    const std::uint64_t payload_size = decode_frame_header(header);
    if (payload_size > kMaxFrameBytes) {
        close();
        throw Error(ErrorCode::io_error,
                    "TcpChannel::recv: implausible frame length " +
                        std::to_string(payload_size) + " (stream desynced?)");
    }
    std::string message(static_cast<std::size_t>(payload_size), '\0');
    if (payload_size > 0) {
        read_all(reinterpret_cast<unsigned char*>(message.data()),
                 static_cast<std::size_t>(payload_size), sizeof(header), started);
    }
    return message;
}

bool TcpChannel::has_pending() const {
    {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        if (closed_) {
            return false;
        }
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    return ::poll(&pfd, 1, 0) > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0;
}

// -------------------------------------------------------- ChannelListener

ChannelListener::ChannelListener(std::uint16_t port, const std::string& host, int backlog) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        throw Error(ErrorCode::io_error, errno_text("ChannelListener: socket"));
    }
    const int one = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        (void)::close(fd_);
        throw Error(ErrorCode::io_error,
                    "ChannelListener: not a numeric IPv4 address: " + host);
    }
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string text = errno_text("ChannelListener: bind");
        (void)::close(fd_);
        throw Error(ErrorCode::io_error, text);
    }
    if (::listen(fd_, backlog > 0 ? backlog : SOMAXCONN) != 0) {
        const std::string text = errno_text("ChannelListener: listen");
        (void)::close(fd_);
        throw Error(ErrorCode::io_error, text);
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
        const std::string text = errno_text("ChannelListener: getsockname");
        (void)::close(fd_);
        throw Error(ErrorCode::io_error, text);
    }
    port_ = ntohs(bound.sin_port);
}

ChannelListener::~ChannelListener() {
    close();
    (void)::close(fd_);
}

void ChannelListener::close() {
    {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        if (closed_) {
            return;
        }
        closed_ = true;
    }
    // Wakes a blocked accept() (returns EINVAL); the fd is released in the
    // destructor only, so no concurrent call races a recycled descriptor.
    (void)::shutdown(fd_, SHUT_RDWR);
}

void ChannelListener::set_nonblocking(bool enabled) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0) {
        throw Error(ErrorCode::io_error, errno_text("ChannelListener: fcntl(F_GETFL)"));
    }
    const int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (want != flags && ::fcntl(fd_, F_SETFL, want) != 0) {
        throw Error(ErrorCode::io_error, errno_text("ChannelListener: fcntl(F_SETFL)"));
    }
}

bool ChannelListener::should_retry_accept(int err) {
    if (err == EINTR) {
        return true;
    }
    // Per accept(2), an aborted handshake or an already-dead network
    // path surfaces HERE as an error about the would-be connection —
    // it must not take down a long-running accept loop.
    if (err == ECONNABORTED || err == EPROTO || err == ENETDOWN || err == ENONET ||
        err == EHOSTDOWN || err == EHOSTUNREACH || err == ENETUNREACH || err == EOPNOTSUPP) {
        return true;
    }
    if (err == EAGAIN || err == EWOULDBLOCK || err == EMFILE || err == ENFILE) {
        return false;  // caller-specific: block/sleep (accept) or yield (try_accept)
    }
    {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        if (closed_) {
            throw Error(ErrorCode::channel_closed, "ChannelListener::accept: listener closed");
        }
    }
    errno = err;
    throw Error(ErrorCode::io_error, errno_text("ChannelListener::accept"));
}

std::unique_ptr<TcpChannel> ChannelListener::accept() {
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(state_mutex_);
            if (closed_) {
                throw Error(ErrorCode::channel_closed, "ChannelListener::accept: listener closed");
            }
        }
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client >= 0) {
            return std::make_unique<TcpChannel>(client);
        }
        if (should_retry_accept(errno)) {
            continue;
        }
        // Out of descriptors: back off instead of hot-looping; the
        // condition clears when a live connection closes. (EAGAIN can
        // only mean the listener was put in non-blocking mode — treat it
        // the same way rather than spin.)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

std::unique_ptr<TcpChannel> ChannelListener::try_accept() {
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(state_mutex_);
            if (closed_) {
                throw Error(ErrorCode::channel_closed,
                            "ChannelListener::try_accept: listener closed");
            }
        }
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client >= 0) {
            return std::make_unique<TcpChannel>(client);
        }
        if (should_retry_accept(errno)) {
            continue;
        }
        // Backlog empty (EAGAIN) or out of descriptors (EMFILE/ENFILE):
        // hand control back to the event loop — it must keep servicing
        // live connections so the fd pressure can actually clear.
        return nullptr;
    }
}

// ------------------------------------------------------------ tcp_connect

std::unique_ptr<TcpChannel> tcp_connect(const std::string& host, std::uint16_t port,
                                        std::chrono::milliseconds timeout) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* results = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &results);
    if (rc != 0) {
        throw Error(ErrorCode::io_error,
                    "tcp_connect: cannot resolve " + host + ": " + ::gai_strerror(rc));
    }
    const auto connected = [results](int fd) {
        const int flags = ::fcntl(fd, F_GETFL);
        (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
        ::freeaddrinfo(results);
        return std::make_unique<TcpChannel>(fd);
    };
    // A bounded connect is non-blocking + poll; without a deadline the
    // kernel's own connect wait applies.
    const bool bounded = timeout.count() > 0;
    // The timeout budgets the WHOLE call, split across candidate addresses
    // as they are tried (one address — the common case — gets all of it).
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    int last_errno = 0;
    bool timed_out = false;
    for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype | (bounded ? SOCK_NONBLOCK : 0),
                                ai->ai_protocol);
        if (fd < 0) {
            last_errno = errno;
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            return connected(fd);  // unbounded, or the loopback fast path
        }
        if (!bounded || errno != EINPROGRESS) {
            last_errno = errno;
            (void)::close(fd);
            continue;
        }
        // Connect in flight: poll for writability until the deadline, then
        // read the outcome from SO_ERROR (the non-blocking connect
        // contract).
        for (;;) {
            const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            if (remaining.count() <= 0) {
                timed_out = true;
                break;
            }
            pollfd pfd{};
            pfd.fd = fd;
            pfd.events = POLLOUT;
            const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
            if (ready < 0) {
                if (errno == EINTR) {
                    continue;
                }
                last_errno = errno;
                break;
            }
            if (ready == 0) {
                timed_out = true;
                break;
            }
            int so_error = 0;
            socklen_t len = sizeof(so_error);
            if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
                last_errno = errno;
                break;
            }
            if (so_error == 0) {
                return connected(fd);
            }
            last_errno = so_error;
            break;
        }
        (void)::close(fd);
        if (timed_out) {
            break;  // budget exhausted; don't start on the next address
        }
    }
    ::freeaddrinfo(results);
    if (timed_out) {
        throw Error(ErrorCode::channel_timeout,
                    "tcp_connect: no connection to " + host + ":" + std::to_string(port) +
                        " within " + std::to_string(timeout.count()) + " ms");
    }
    errno = last_errno;
    throw Error(ErrorCode::io_error,
                errno_text(("tcp_connect: cannot connect to " + host + ":" +
                            std::to_string(port))
                               .c_str()));
}

}  // namespace ens::split
