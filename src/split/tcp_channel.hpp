#pragma once
// Socket-backed Channel for real multi-process collaborative inference.
//
// TcpChannel implements the Channel byte-message contract over a connected
// POSIX TCP socket with length-prefixed framing: each message is an 8-byte
// little-endian payload length followed by the payload bytes (zero-length
// messages are a header only). Partial reads and writes are handled
// internally; failures surface as typed ens::Error:
//   channel_closed  - peer disconnected (clean EOF between frames, reset,
//                     or EOF mid-frame), or close() was called locally
//   channel_timeout - set_recv_timeout elapsed with no complete next frame
//   io_error        - any other OS-level socket failure, and oversized
//                     frame headers (stream desync / corrupt peer)
// A timeout that strikes after part of a frame was consumed poisons the
// stream (the next read would start mid-frame), so the channel closes
// itself; only an idle timeout — nothing of the next frame read yet — is
// retryable. send() is atomic per message: concurrent senders (the serve
// fan-out) never interleave frame bytes.
//
// ChannelListener + tcp_connect() make the endpoint pair: the daemon binds
// (port 0 picks an ephemeral port, see port()), accept() yields one
// TcpChannel per client, and close() from any thread wakes a blocked
// accept() with ens::Error{channel_closed}.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "split/channel.hpp"

namespace ens::split {

/// Frame header: the payload length, 8 bytes little-endian.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Frames larger than this are treated as stream desync / a corrupt peer
/// rather than a legitimate feature map (the largest bench tensors are
/// MBs). The reactor's non-blocking reader applies the same bound.
inline constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 30;

/// The payload length a frame header announces.
std::uint64_t decode_frame_header(const unsigned char in[kFrameHeaderBytes]);

class TcpChannel final : public Channel {
public:
    /// Adopts a connected socket fd (takes ownership; sets TCP_NODELAY).
    explicit TcpChannel(int fd);
    ~TcpChannel() override;

    TcpChannel(const TcpChannel&) = delete;
    TcpChannel& operator=(const TcpChannel&) = delete;

    void send(std::string message) override;

    /// Scatter-gather send: ships length prefix + header + payload as one
    /// frame through a single sendmsg (three iovecs), so a pipelined tag
    /// rides along with an encode-once payload with ZERO extra copies of
    /// the payload bytes. Bills payload.size() only (the tag is protocol
    /// framing, like the length prefix — see Channel::send_parts).
    void send_parts(std::string_view header, std::string_view payload) override;

    std::string recv() override;
    bool has_pending() const override;

    /// Shuts both directions down and wakes blocked peers/receivers. The fd
    /// stays reserved until destruction so no in-flight call can race a
    /// recycled descriptor.
    void close() override;

    /// Caps the WHOLE-message wait: a peer trickling a frame byte by byte
    /// cannot stretch recv() past the cap. A recv waits in poll() slices of
    /// at most 100 ms and re-reads the cap on each, so a new cap also
    /// bounds a recv that is already blocked (measured from its start).
    void set_recv_timeout(std::chrono::milliseconds timeout) override;

    /// The underlying socket descriptor, for readiness registration
    /// (poll()) by an event-driven host. The reactor watches this fd
    /// but all actual I/O still goes through the channel, so framing,
    /// billing and close semantics stay in one place. Valid for the
    /// channel's lifetime (close() shuts the socket down but keeps the fd
    /// reserved).
    int fd() const { return fd_; }

private:
    /// Writes up to three byte spans as one frame without copying any of
    /// them, looping over short writes (sendmsg + iovec). EPIPE/reset ->
    /// channel_closed, other failures -> io_error.
    struct Span {
        const unsigned char* data = nullptr;
        std::size_t size = 0;
    };
    void write_frame(const Span* spans, std::size_t span_count);

    /// Shared body of send/send_parts: closed-check, frame header, write,
    /// billing (`billed` bytes — payload only, framing excluded).
    void send_spans(std::string_view header, std::string_view payload, std::size_t billed);

    /// Reads exactly `size` bytes of the message whose recv() began at
    /// `started`. `frame_offset` is how much of the current frame was
    /// already consumed — it decides whether EOF/timeout is a clean
    /// between-frames condition or a mid-frame fault (which poisons the
    /// channel).
    void read_all(unsigned char* data, std::size_t size, std::size_t frame_offset,
                  std::chrono::steady_clock::time_point started);
    /// Blocks until the socket is readable (or at EOF/error). Throws
    /// channel_timeout once the current recv cap, counted from `started`,
    /// has run out, closing the channel first when `mid_frame`.
    void wait_readable(std::chrono::steady_clock::time_point started, bool mid_frame);

    void mark_closed();

    const int fd_;
    std::mutex send_mutex_;
    std::mutex recv_mutex_;
    mutable std::mutex state_mutex_;  // guards closed_
    bool closed_ = false;
    std::atomic<long long> recv_timeout_ms_{0};  // 0 = wait forever
};

/// Bound + listening TCP endpoint; accept() hands out connected channels.
class ChannelListener {
public:
    /// Binds `host:port` (SO_REUSEADDR) and listens. port 0 = ephemeral
    /// (read port()). backlog 0 = SOMAXCONN — a reactor host expects
    /// accept bursts far deeper than the old fixed 16; pass a small
    /// explicit backlog only to deliberately provoke connection refusal.
    explicit ChannelListener(std::uint16_t port = 0, const std::string& host = "127.0.0.1",
                             int backlog = 0);
    ~ChannelListener();

    ChannelListener(const ChannelListener&) = delete;
    ChannelListener& operator=(const ChannelListener&) = delete;

    /// The bound port (resolved for ephemeral binds).
    std::uint16_t port() const { return port_; }

    /// The listening descriptor, for readiness registration (poll()).
    /// The reactor watches it and calls try_accept() on POLLIN.
    int fd() const { return fd_; }

    /// Toggles O_NONBLOCK on the LISTENING socket (accepted connections
    /// are unaffected — they come up blocking either way). In
    /// non-blocking mode use try_accept(); accept() would throw io_error
    /// on an empty backlog.
    void set_nonblocking(bool enabled);

    /// Blocks for the next connection. Throws ens::Error{channel_closed}
    /// once close() is called, ens::Error{io_error} on accept failure.
    std::unique_ptr<TcpChannel> accept();

    /// Non-blocking accept for reactor loops: returns the next pending
    /// connection, or nullptr when the backlog is empty (EAGAIN) or the
    /// process is out of descriptors (EMFILE/ENFILE — the caller's event
    /// loop must keep running so existing connections can close and clear
    /// the condition; no sleeping here). Transient per-connection errnos
    /// are swallowed exactly like accept(). Throws
    /// ens::Error{channel_closed} once close() is called.
    std::unique_ptr<TcpChannel> try_accept();

    /// Stops accepting and wakes a blocked accept() (idempotent).
    void close();

private:
    /// Shared accept-loop body: classifies `err` after a failed
    /// ::accept. Returns true when the errno is a transient
    /// per-connection fault the loop should skip; throws channel_closed /
    /// io_error for terminal conditions; returns false for EAGAIN and
    /// EMFILE/ENFILE (caller-specific handling).
    bool should_retry_accept(int err);

    int fd_ = -1;
    std::uint16_t port_ = 0;
    mutable std::mutex state_mutex_;
    bool closed_ = false;
};

/// Connects to a listening daemon; `host` is a numeric address or name
/// resolvable by getaddrinfo. A positive `timeout` bounds the whole call
/// (non-blocking connect + poll): a black-holed or firewalled endpoint
/// fails within it as ens::Error{channel_timeout} instead of hanging for
/// the kernel's SYN retry budget (minutes) — what lets replica failover
/// make progress when a host dies silently. The default 0 sets no
/// deadline. Refusals and other socket failures are ens::Error{io_error}.
std::unique_ptr<TcpChannel> tcp_connect(const std::string& host, std::uint16_t port,
                                        std::chrono::milliseconds timeout =
                                            std::chrono::milliseconds(0));

}  // namespace ens::split
