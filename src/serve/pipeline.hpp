#pragma once
// Client-side pipelined transport over one or more body-host connections —
// the engine behind RemoteSession (one link) and ShardRouter (K shards,
// each served by R >= 1 replica links).
//
// Protocol v2 ran strict lockstep: send one request, block for its
// body_count replies, repeat — so measured latency scaled with ROUND TRIPS
// (requests x shards x RTT), not with compute, exactly the cost §III-D's
// latency argument says the regular user must not pay. Version 3 tags
// every frame with a request id (serve/protocol.hpp), which lets a client
// keep a WINDOW of requests in flight per connection and match replies to
// futures by id instead of by stream position.
//
// Structure (all created at connect/reconnect time — NEVER per request):
//   per link:  one SENDER thread draining a send queue (so submit() never
//              blocks on a slow shard's socket), and one RECV-DEMUX thread
//              that parses reply tags, decodes feature maps straight into
//              the owning request's global body slots, and detects
//              duplicate/unknown ids as typed protocol errors;
//   per group: links serving the IDENTICAL body slice form a replica
//              GROUP; each request is assigned to exactly one healthy
//              member per group (round-robin), so replicas share load and
//              a group is down only when its last member is;
//   shared:    an in-flight table (id -> request) bounded by the
//              negotiated window — submit() blocks when the window is
//              full (client-side backpressure; the host's reactor applies
//              the same bound by not reading past it) — and a finisher
//              callback (secret selector + private tail + stats,
//              serialized internally) run by whichever link's demux
//              delivers a request's LAST frame. Completion is
//              therefore OUT OF ORDER: a fast request's future resolves
//              before an earlier slow one, ids never cross.
//
// Failure semantics (the PR-3 desync contract, extended per replica): any
// transport or protocol error on a link closes that link's channel and
// marks it needs-reconnect. Requests in flight on the dead link are NOT
// faulted while a sibling replica survives: the retained uplink payload is
// replayed onto a healthy group member under a FRESH wire id (the dead
// stream's ids are unknowable — a stale reply must never be mistaken for
// the replay's), bounded by RetryPolicy::max_attempts per request. Only
// when a group's last member dies (or the attempts bound is hit) do the
// futures fault with a typed ens::Error labeled with the link
// ("shard 2 replica 1: ..."); the group then refuses submissions typed
// until a member is reconnect()ed. Healthy links are untouched — their
// tagged streams cannot desynchronize. Replay is at-least-once towards the
// hosts (a killed host may or may not have computed the request) and
// exactly-once towards the client future: the settled flag lets whichever
// replica delivers last win, and duplicate deliveries of the same slot are
// impossible because the dead link's channel is closed before its pending
// moves.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <optional>

#include "common/stopwatch.hpp"
#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "serve/stats.hpp"
#include "serve/types.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"
#include "tensor/tensor.hpp"

namespace ens::serve {

/// Re-raises `error` with "label: " prefixed to its message when it is an
/// ens::Error (the code is preserved — callers dispatch on it); other
/// exception types propagate unchanged (client-side bugs, not peer
/// failures).
[[noreturn]] void rethrow_labeled(const std::string& label, const std::exception_ptr& error);

/// rethrow_labeled captured as an exception_ptr (for promise faulting).
std::exception_ptr labeled_exception(const std::string& label, const std::exception_ptr& error);

/// The uplink payload of one request: encoded ONCE into a pooled buffer,
/// shared read-only by every link's sender, returned to the pool when the
/// last sender is done with it. Retained on the in-flight request until
/// completion so a replica failure can replay the identical bytes.
using SharedPayload = std::shared_ptr<split::WireBufferPool::Lease>;

/// One in-flight request, shared between the submitter (owns the future)
/// and every link carrying a piece of it.
struct InflightRequest {
    std::uint64_t id = 0;
    std::int64_t images = 0;
    /// Started when the OWNER began the request (before the client head
    /// phase), so total_ms keeps the PR-3 infer() meaning: everything from
    /// submission to logits.
    Stopwatch submitted;
    /// Time submit() spent parked on window backpressure.
    double queue_ms = 0.0;
    /// The encoded uplink bytes, kept until the request settles so a
    /// replica failover can replay them without re-encoding.
    SharedPayload payload;
    /// Decoded feature maps in GLOBAL body order; each link's demux fills
    /// its own disjoint slice, so no locking is needed on the slots.
    std::vector<Tensor> features;
    /// Frames still expected across all links; the demux that takes this
    /// to zero runs the finisher.
    std::atomic<std::size_t> frames_remaining{0};
    /// Replica groups that still have to finish (deliver or fail) their
    /// share; the one that takes this to zero retires the table entry.
    std::atomic<std::size_t> groups_remaining{0};
    /// Times this request has been moved onto a sibling replica (bounded
    /// by RetryPolicy::max_attempts).
    std::atomic<std::size_t> failovers{0};
    /// Guards the promise against double fulfillment (completion racing a
    /// link failure).
    std::atomic<bool> settled{false};
    std::promise<InferenceResult> promise;
};

/// The shared client-side finish of a completed request — secret selector
/// over the merged global feature maps, private tail, stats — used as the
/// ShardPipeline finisher by both RemoteSession and ShardRouter (their
/// completion semantics are identical by design: one host is just K = 1).
InferenceResult finish_request(InflightRequest& request, const core::Selector& selector,
                               nn::Layer& tail, SessionStats& stats);

/// FIFO convenience for windowed clients (examples, benches): holds at
/// most `capacity` outstanding futures; push() returns the OLDEST result
/// once the window is full, drain via pop()/empty(). A future that faults
/// throws out of pop() while the rest of the window stays held, so the
/// caller can keep draining.
class FutureWindow {
public:
    explicit FutureWindow(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    /// Adds a future; when that fills the window past capacity, resolves
    /// and returns the oldest outstanding one (nullopt while filling up).
    /// The new future is stored BEFORE the oldest is resolved, so a fault
    /// thrown out of the resolve never drops the one just pushed.
    std::optional<InferenceResult> push(std::future<InferenceResult> future) {
        pending_.push_back(std::move(future));
        if (pending_.size() > capacity_) {
            return pop();
        }
        return std::nullopt;
    }

    /// Resolves the oldest outstanding future (undefined when empty()).
    InferenceResult pop() {
        std::future<InferenceResult> future = std::move(pending_.front());
        pending_.pop_front();
        return future.get();
    }

    bool empty() const { return pending_.empty(); }
    std::size_t size() const { return pending_.size(); }

private:
    std::size_t capacity_;
    std::deque<std::future<InferenceResult>> pending_;
};

class ShardPipeline {
public:
    /// A group id meaning "this link is its own group" (the default: no
    /// replication, exactly the pre-replica behavior).
    static constexpr std::size_t kOwnGroup = static_cast<std::size_t>(-1);

    /// One connected, already-handshaken link. `stats` (nullable) is owner
    /// memory so per-shard stats survive reconnects; replicas of one shard
    /// share the same stats object. A NULL channel marks a BORN-FAILED
    /// replica (its endpoint was unreachable at dial time): the link
    /// starts in the needs-reconnect state with no I/O workers and joins
    /// the rotation via reconnect(), so a deployment boots degraded while
    /// at least one replica per group is live (an all-dead group refuses
    /// construction).
    struct Endpoint {
        std::unique_ptr<split::Channel> channel;
        std::size_t body_begin = 0;
        std::size_t body_count = 0;
        std::string label;  ///< "shard 0 replica 1" / "host" — error tagging
        SessionStats* stats = nullptr;
        /// Endpoints sharing a `group` value are replicas of one slice and
        /// must advertise identical body ranges; kOwnGroup keeps the link
        /// un-replicated.
        std::size_t group = kOwnGroup;
        /// Error tag of the whole group ("shard 0"); defaults to `label`.
        std::string group_label;
    };

    /// Runs the client-side finish of a completed request: secret selector
    /// + private tail + stats, returning the result the future resolves
    /// with. Called with an internal mutex held (the shared tail layer's
    /// forward cache is not thread-safe), on the demux thread that
    /// delivered the request's last frame.
    using Finisher = std::function<InferenceResult(InflightRequest& request)>;

    /// Spawns the per-link I/O workers. `owner` prefixes submit-refusal
    /// messages; `reconnect_hint` finishes them ("reconnect_shard() it
    /// before further inference" / "open a new session"). `retry` bounds
    /// per-request failover; `session_stats` (nullable) receives
    /// record_failover() for session-level observability.
    ShardPipeline(std::vector<Endpoint> endpoints, std::size_t total_bodies, std::size_t window,
                  std::string owner, std::string reconnect_hint, Finisher finisher,
                  RetryPolicy retry = {}, SessionStats* session_stats = nullptr);

    /// close()s and joins everything; outstanding futures fault typed.
    ~ShardPipeline();

    ShardPipeline(const ShardPipeline&) = delete;
    ShardPipeline& operator=(const ShardPipeline&) = delete;

    /// Registers one request and enqueues its payload on one healthy
    /// replica of every group (round-robin within the group). Blocks while
    /// the in-flight window is full (backpressure; the wait is recorded as
    /// the request's queue_ms). Throws typed when the pipeline is closed
    /// or any GROUP has no healthy replica. The caller runs the client
    /// phase (head/noise/encode) BEFORE this and passes `submitted` — the
    /// stopwatch it started before that phase — so total_ms spans the
    /// whole request; the returned future resolves (out of order) with the
    /// finisher's result or faults with a labeled transport/protocol
    /// error.
    std::future<InferenceResult> submit(SharedPayload payload, std::int64_t images,
                                        Stopwatch submitted);

    /// In-flight window (min of the local cap and every host's cap).
    std::size_t window() const { return window_; }

    /// Requests currently in flight (for tests).
    std::size_t inflight() const;

    bool needs_reconnect(std::size_t link) const;

    /// Swaps a FAILED link's channel for a fresh, already-handshaken one
    /// and restarts its I/O workers. The owner has already validated the
    /// replacement host's slice.
    void reconnect(std::size_t link, std::unique_ptr<split::Channel> channel);

    /// Bounds how long a pending request may wait on each link before the
    /// link is declared failed (0 = forever). Applies to current and
    /// reconnected channels.
    void set_recv_timeout(std::chrono::milliseconds timeout);

    /// Traffic counters of a link's current channel (reset on reconnect).
    split::TrafficStats channel_traffic(std::size_t link) const;

    std::size_t link_count() const { return links_.size(); }

    /// Replica groups in construction (first-appearance) order.
    std::size_t group_count() const { return groups_.size(); }
    /// The group a link belongs to.
    std::size_t group_of_link(std::size_t link) const;
    /// True when a group has no healthy replica left — submissions are
    /// refused typed until one of its links is reconnect()ed.
    bool group_down(std::size_t group) const;
    std::size_t replicas_configured(std::size_t group) const;
    std::size_t replicas_healthy(std::size_t group) const;

    /// In-flight requests moved onto a sibling replica since construction.
    std::uint64_t failovers_total() const { return failovers_total_.load(); }

    const RetryPolicy& retry_policy() const { return retry_; }

    /// Closes every link and faults outstanding futures (idempotent).
    void close();

private:
    struct SendItem {
        std::uint64_t id = 0;
        SharedPayload payload;
    };

    /// A link's view of one in-flight request, keyed by WIRE id (equal to
    /// the request id on first assignment, fresh on every replay).
    struct LinkPending {
        std::shared_ptr<InflightRequest> request;
        std::vector<bool> seen;        // per body_seq duplicate guard
        std::size_t delivered = 0;
        bool sent = false;
        Stopwatch started;  // stamped at actual send time (shard stats)
    };

    struct Link {
        std::unique_ptr<split::Channel> channel;
        std::size_t body_begin = 0;
        std::size_t body_count = 0;
        std::string label;
        SessionStats* stats = nullptr;
        std::size_t group = 0;  ///< index into groups_
        std::size_t index = 0;  ///< own index into links_

        std::mutex mutex;  // guards queue, pending, stop, failed
        std::condition_variable send_cv;
        std::deque<SendItem> queue;
        std::unordered_map<std::uint64_t, LinkPending> pending;
        bool stop = false;
        bool failed = false;

        std::thread sender;
        std::thread demux;
    };

    /// Links serving the identical body slice; a request rides exactly one
    /// healthy member per group.
    struct Group {
        std::size_t body_begin = 0;
        std::size_t body_count = 0;
        std::string label;                 ///< "shard 0" — group error tag
        std::vector<std::size_t> members;  ///< indices into links_
        std::size_t rr = 0;                ///< round-robin cursor (table_mutex_)
    };

    void start_link(Link& link);
    void sender_loop(Link& link);
    void demux_loop(Link& link);
    /// Handles one reply frame; throws to fail the link.
    void handle_frame(Link& link, const std::string& frame);
    /// Marks the link failed and either fails its pending requests over to
    /// a sibling replica or faults them (labeled) when none survives.
    /// First caller wins; later calls are no-ops.
    void fail_link(Link& link, const std::exception_ptr& error);
    /// Enqueues `request` under `wire_id` on one healthy member of
    /// `group_index` (round-robin); false when the group has no healthy
    /// member.
    bool assign(const std::shared_ptr<InflightRequest>& request, std::size_t group_index,
                std::uint64_t wire_id);
    /// Publishes "this group has no healthy replica" (submit refusals).
    void mark_group_down(std::size_t group_index);
    /// Completes `request` (finisher + promise) exactly once.
    void complete(const std::shared_ptr<InflightRequest>& request);
    /// A group finished (delivered or failed) its share of `request`.
    void group_done_with(const std::shared_ptr<InflightRequest>& request);

    std::vector<std::unique_ptr<Link>> links_;
    std::vector<Group> groups_;
    std::size_t total_bodies_ = 0;
    std::size_t window_ = kDefaultMaxInflight;
    std::string owner_;
    std::string reconnect_hint_;
    Finisher finisher_;
    RetryPolicy retry_;
    SessionStats* session_stats_ = nullptr;
    std::mutex finish_mutex_;  // serializes the shared tail forward

    mutable std::mutex table_mutex_;  // guards table_, needs_reconnect_,
                                      // group_down_, group rr cursors, closed_
    std::condition_variable window_cv_;
    std::unordered_map<std::uint64_t, std::shared_ptr<InflightRequest>> table_;
    std::vector<unsigned char> needs_reconnect_;  // per link
    std::vector<unsigned char> group_down_;       // per group
    bool closed_ = false;

    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<long long> recv_timeout_ms_{0};
    std::atomic<std::uint64_t> failovers_total_{0};
};

}  // namespace ens::serve
