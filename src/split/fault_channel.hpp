#pragma once
// Channel decorators for link-shape and failure modeling.
//
// DelayChannel models LINK PROPAGATION DELAY: every frame (both
// directions) is delivered one-way-delay later than it was sent, with
// unlimited frames in flight — a netem-style stand-in for the LAN/WAN hop
// between the client and the body hosts (cf. the analytic link profiles in
// src/latency/profiles.hpp; loopback TCP alone has ~0 propagation delay,
// which hides exactly the cost §III-D's latency argument is about). It
// started life inside bench/serve_throughput.cpp and was promoted here so
// the fault tooling below has its sibling in the library.
//
// FaultChannel is the DETERMINISTIC fault injector behind the replica
// failover tests: it forwards traffic to an inner channel verbatim until a
// scripted message index, then drops the message, delays it, truncates it
// (forwards only a prefix, then kills the stream — what a mid-frame peer
// death looks like above the framing layer), or hard-closes the channel.
// Actions are keyed by per-direction message INDEX, not wall clock, so a
// test replays the identical failure point on every run — the channel-level
// counterpart of the failover tests' SIGKILLed serve_daemon replicas
// (which cover genuine kernel-level mid-frame death).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "split/channel.hpp"

namespace ens::split {

class DelayChannel final : public Channel {
public:
    /// Wraps `inner`; every frame in either direction arrives `one_way`
    /// after it was sent. Spawns two shuttle threads for the channel's
    /// lifetime.
    DelayChannel(std::unique_ptr<Channel> inner, std::chrono::microseconds one_way);
    ~DelayChannel() override;

    // send_parts falls through to the Channel base default (assemble +
    // send), which lands in enqueue_out below.
    void send(std::string message) override;
    std::string recv() override;
    bool has_pending() const override;
    void close() override;
    void set_recv_timeout(std::chrono::milliseconds timeout) override;

    /// Decorators carry no traffic of their own: billing happens where the
    /// bytes are sent (the inner channel), so the counters a session reads
    /// through the decorator must be the inner channel's.
    TrafficStats stats() const override { return inner_->stats(); }
    void reset_stats() override { inner_->reset_stats(); }

private:
    using Clock = std::chrono::steady_clock;
    struct Frame {
        Clock::time_point release;
        std::string bytes;
    };

    void enqueue_out(std::string message);
    void shuttle_loop();
    void pump_loop();

    std::unique_ptr<Channel> inner_;
    std::chrono::microseconds delay_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Frame> out_;
    std::deque<Frame> in_;
    bool closed_ = false;
    bool in_eof_ = false;
    std::thread shuttle_;
    std::thread pump_;
};

/// One scripted fault: fires when message number `at` (0-based, counted
/// per direction) passes through the channel in `direction`.
struct FaultAction {
    enum class Kind {
        drop,      ///< swallow the message silently (peer never sees it)
        delay,     ///< hold the message for `delay`, then forward it
        truncate,  ///< forward only the first `keep_bytes` bytes, then kill
                   ///< the stream — a mid-frame peer death as seen above
                   ///< the framing layer
        close_hard,  ///< kill the stream instead of carrying the message
    };
    enum class Direction { send, recv };

    Kind kind = Kind::drop;
    Direction direction = Direction::send;
    std::size_t at = 0;
    std::chrono::milliseconds delay{0};  ///< Kind::delay only
    std::size_t keep_bytes = 0;          ///< Kind::truncate only
};

class FaultChannel final : public Channel {
public:
    /// Wraps `inner` with a fault script. Multiple actions may target
    /// different indices; at most one action per (direction, index) fires
    /// (the first match in script order).
    FaultChannel(std::unique_ptr<Channel> inner, std::vector<FaultAction> script);

    void send(std::string message) override;
    std::string recv() override;
    bool has_pending() const override;
    void close() override;
    void set_recv_timeout(std::chrono::milliseconds timeout) override;

    /// See DelayChannel: traffic lives on the inner channel. A scripted
    /// drop never reaches the inner send, so it is not billed — the
    /// counters report what actually crossed the wire, which is also what
    /// a wiretap on the inner transport would have observed.
    TrafficStats stats() const override { return inner_->stats(); }
    void reset_stats() override { inner_->reset_stats(); }

    /// Observability for test assertions: messages that entered each
    /// direction (counting ones a fault then consumed) and scripted
    /// actions that actually fired.
    std::size_t sends_seen() const { return sends_seen_.load(); }
    std::size_t recvs_seen() const { return recvs_seen_.load(); }
    std::size_t faults_fired() const { return faults_fired_.load(); }

private:
    /// First unfired script entry matching (direction, index), or nullptr.
    const FaultAction* match(FaultAction::Direction direction, std::size_t index);
    [[noreturn]] void kill_stream(const char* why);

    std::unique_ptr<Channel> inner_;
    std::vector<FaultAction> script_;
    std::vector<unsigned char> fired_;
    std::mutex script_mutex_;
    std::atomic<std::size_t> sends_seen_{0};
    std::atomic<std::size_t> recvs_seen_{0};
    std::atomic<std::size_t> faults_fired_{0};
};

}  // namespace ens::split
