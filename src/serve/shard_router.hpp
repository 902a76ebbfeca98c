#pragma once
// The wire client: a router over K body hosts — the §III-D multiparty
// deployment made real across process (and machine) boundaries. One
// whole-deployment host is just K = 1 (RemoteSession, serve/remote.hpp,
// is exactly that).
//
// Each shard is a BodyHost process hosting a disjoint contiguous slice of
// the deployment's N bodies (BodyHost::set_shard + serve_daemon
// --bodies i..j), optionally served by R > 1 REPLICA processes advertising
// the identical slice. The router opens one Channel per replica, validates
// at handshake time that the K advertised slices tile [0, N) exactly and
// that every replica of a shard agrees on its slice — any overlap, gap or
// total-count disagreement is a typed ens::Error{protocol_error} before a
// single feature byte flows — then per request fans the head output to one
// healthy replica of every shard concurrently (round-robin load balancing
// within a shard), merges the returned per-body feature maps in GLOBAL
// body order, and applies the client-held secret selector + tail exactly
// as the in-proc CollaborativeSession oracle does (tests assert
// bit-parity).
//
// Privacy: this is the paper's strongest deployment. No single host ever
// holds all N bodies, so a lone adversarial shard cannot even enumerate the
// full 2^N - 1 shadow-subset space, and the selector — the only secret —
// still never leaves the client process. Replication preserves the
// property: replicas duplicate a slice, they never concentrate more of the
// ensemble on one box (see docs/ARCHITECTURE.md "Replication & failover").
//
// Pipelining (protocol v4, serve/protocol.hpp): every frame carries a
// request id, so the router keeps up to window() requests in flight per
// connection and matches replies to futures by id, not stream position.
// submit() runs the client phase (head + noise) on the calling thread,
// encodes the feature map ONCE into a pooled buffer, writes the tagged
// request to the chosen replica of every shard ON THE CALLING THREAD, and
// returns a future. Per replica LINK there is exactly one I/O thread, a
// RECV-DEMUX that parses reply tags, decodes feature maps straight into
// the request's global body slots, and turns unknown/duplicate/
// out-of-range tags into typed protocol errors. The in-flight table is
// bounded by the negotiated window — submit() parks while it is full
// (client-side backpressure; the host's reactor applies the same bound by
// not reading past it). Because the window never exceeds any host's
// per-connection cap, a healthy host always reads the request; only a
// host that has stopped reading (SIGSTOPped, hung) can block submit()
// inside the socket write, and then until the recv timeout declares the
// link failed and its close() wakes the write (0 = forever, as for the
// future). The demux that delivers a request's LAST map runs selector +
// tail (serialized: the shared tail's forward cache is not thread-safe)
// and resolves the future — out of order when a later request finishes
// first; ids never cross. infer() is submit + wait. All I/O threads are
// created at connect (and reconnect) time — NEVER per request.
//
// Failure isolation and failover: a transport or protocol error on a
// replica closes that link only; the other shards' tagged streams cannot
// desynchronize. Requests in flight on the dead link are replayed onto a
// surviving replica of the same shard under a FRESH wire id (the dead
// stream's ids are unknowable — a stale reply must never match the
// replay) with the identical retained payload bytes, written by the dying
// link's demux thread straight onto the sibling, bounded by
// RetryPolicy::max_attempts — the client future never notices. Replay is
// at-least-once towards the hosts and exactly-once towards the future (a
// settled flag; the dead channel is closed before its pending moves).
// Only when a shard's LAST replica is gone do futures fault typed
// (channel_closed / channel_timeout / io_error / protocol_error, tagged
// "shard 2 replica 1: ..."), submission is refused typed
// (shard_needs_reconnect) and reconnect_shard() swaps in a fresh channel
// to a replacement host (which must advertise the identical body slice).
// When the router was constructed from ENDPOINTS (not bare channels), a
// background maintenance thread also redials failed replicas on the
// RetryPolicy backoff schedule and re-admits them automatically.
//
// submit() must be called from one thread at a time (the shared head
// layer's forward cache is not thread-safe) — but up to window()
// submissions can be outstanding at once. The in-proc InferenceService
// meets this rule by handing its sessions a head that serializes its
// own forwards, so threads sharing one of its sessions may submit
// concurrently.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "serve/pipeline.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "serve/stats.hpp"
#include "serve/types.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"

namespace ens::serve {

/// A dialable replica address (numeric or resolvable host).
struct ReplicaEndpoint {
    std::string host;
    std::uint16_t port = 0;
};

class ShardRouter {
public:
    /// Replica health of one shard (for --stats output and tests).
    struct ReplicaStatus {
        std::size_t configured = 0;
        std::size_t healthy = 0;
    };

    /// Takes the K connected shard channels (any order — the handshake
    /// carries each shard's body slice); `noise` may be null. Reads every
    /// shard's handshake under `handshake_timeout`, validates that the
    /// slices tile [0, N) exactly and that every shard accepts
    /// `wire_format`, and requires selector.n() == N. The in-flight window
    /// is min(max_inflight, every shard's advertised cap). After
    /// construction the channels wait without limit — use set_recv_timeout
    /// to bound per-request waits. One channel per shard means R = 1: no
    /// failover, the PR-3 desync contract verbatim.
    ShardRouter(std::vector<std::unique_ptr<split::Channel>> shards, nn::Layer& head,
                nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                split::WireFormat wire_format = split::WireFormat::f32,
                std::chrono::milliseconds handshake_timeout = std::chrono::seconds(30),
                std::size_t max_inflight = kDefaultMaxInflight);

    /// Replicated construction from already-connected channels:
    /// `shard_replicas[s]` holds the R_s >= 1 replica channels of shard s.
    /// Every replica of a shard must advertise the identical body slice.
    /// `retry` governs in-flight failover and (handshake_timeout,
    /// max_attempts aside) reconnect validation. No background redial —
    /// the router has no addresses to dial.
    ShardRouter(std::vector<std::vector<std::unique_ptr<split::Channel>>> shard_replicas,
                nn::Layer& head, nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                split::WireFormat wire_format = split::WireFormat::f32, RetryPolicy retry = {},
                std::size_t max_inflight = kDefaultMaxInflight);

    /// Replicated construction from addresses: dials every replica of
    /// every shard (bounded per attempt by retry.connect_timeout, up to
    /// retry.max_attempts attempts with deterministic backoff), then
    /// behaves like the channel-based replicated constructor — plus a
    /// background maintenance thread that redials failed replicas on the
    /// retry backoff schedule and re-admits them (same slice validation as
    /// reconnect_shard) without any client involvement.
    ///
    /// Degraded boot: a replica that stays unreachable through every dial
    /// attempt does NOT fail construction as long as a sibling replica of
    /// its shard connects — it joins as a born-failed link the background
    /// redialer keeps retrying, exactly as if it had died mid-session.
    /// Only a shard whose EVERY replica is unreachable throws (the last
    /// dial error, tagged with the replica address).
    ShardRouter(const std::vector<std::vector<ReplicaEndpoint>>& shard_endpoints,
                nn::Layer& head, nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                split::WireFormat wire_format = split::WireFormat::f32, RetryPolicy retry = {},
                std::size_t max_inflight = kDefaultMaxInflight);

    /// close()s: joins every thread; outstanding futures fault typed.
    ~ShardRouter();

    ShardRouter(const ShardRouter&) = delete;
    ShardRouter& operator=(const ShardRouter&) = delete;

    /// Pipelined submission: head (+noise) on the calling thread, encode
    /// once, write the tagged request to one healthy replica per shard
    /// (also on the calling thread), return a future that resolves —
    /// possibly out of order — with the merged + selected + tailed result.
    /// Blocks while window() requests are in flight (the wait is the
    /// result's queue_ms), and inside a write while a host has stopped
    /// reading, until the recv timeout fails that link. On
    /// replica failure the request fails over to a surviving replica; only
    /// when a shard has none left does the future fault with a typed
    /// ens::Error naming the replica, and that shard is marked
    /// desynchronized (shard_needs_reconnect) — further submission fails
    /// typed until reconnect_shard() or the background redial restores a
    /// replica.
    std::future<InferenceResult> submit(Tensor images);

    /// One blocking round trip (submit + wait).
    InferenceResult infer(Tensor images);

    /// Caps how long a pending request may wait on each replica before the
    /// link is declared failed (applies to every current channel and to
    /// channels adopted later by reconnect; 0 = forever).
    void set_recv_timeout(std::chrono::milliseconds timeout);

    /// Replaces the channel of a FAILED replica of shard `shard` after a
    /// failure (the first failed replica, when several are down). Performs
    /// the handshake on the new channel (under the router's
    /// construction-time handshake timeout) and requires the replacement
    /// host to advertise exactly the same body slice (and accept the
    /// session's wire format); on mismatch throws typed, leaves the old
    /// (dead) channel in place and the replica still desynchronized.
    /// Per-shard stats survive the reconnect; the channel's traffic
    /// counters start from zero.
    void reconnect_shard(std::size_t shard, std::unique_ptr<split::Channel> channel);

    /// True when `shard` has NO healthy replica left and must be
    /// reconnected before the next submission. A failed replica's stream
    /// state is unknowable (e.g. a timeout whose reply later arrives), so
    /// the router closes its channel and — once none survives — refuses
    /// further inference typed, never silently wrong, until
    /// reconnect_shard() (or the background redial) re-establishes a clean
    /// stream.
    bool shard_needs_reconnect(std::size_t shard) const;

    /// Healthy vs configured replica counts of one shard.
    ReplicaStatus replica_status(std::size_t shard) const;

    std::size_t shard_count() const { return shards_.size(); }
    /// Total bodies N across all shards.
    std::size_t body_count() const { return shards_.front().host.total_bodies; }
    /// Effective in-flight window negotiated across all shards.
    std::size_t window() const { return window_; }
    /// Each shard's handshake (slice, wire mask, window, deployment
    /// version) in construction order — the shard map. A replicated
    /// shard reports its first live replica's.
    std::vector<HostInfo> shard_map() const;
    /// Index of the shard hosting global body `body_index`.
    std::size_t shard_of_body(std::size_t body_index) const;

    split::WireFormat wire_format() const { return wire_format_; }
    const core::Selector& selector() const { return selector_; }

    /// Whole-request latency stats, plus the session-level failover/retry
    /// counters.
    const SessionStats& stats() const { return stats_; }
    /// Round-trip stats of one shard (send -> last feature map decoded),
    /// shared by the shard's replicas and surviving reconnects; the spread
    /// across shards is the §III-D straggler picture.
    const SessionStats& shard_stats(std::size_t shard) const;
    /// Both-direction traffic of one shard's current channels (one socket
    /// carries up and down), summed across replicas (resets on reconnect).
    split::TrafficStats shard_traffic(std::size_t shard) const;
    /// In-flight requests moved onto a sibling replica since construction.
    std::uint64_t failovers_total() const { return stats_.failovers(); }
    /// Clears the session and per-shard stats and every current channel's
    /// traffic counters (requests in flight still complete and count).
    void reset_stats();

    /// Disconnects every shard (each host ends that connection's loop) and
    /// stops the background redialer. Outstanding futures fault typed.
    /// Idempotent.
    void close();

private:
    /// A link's view of one in-flight request, keyed by WIRE id (equal to
    /// the request id on first assignment, fresh on every replay).
    struct LinkPending {
        std::shared_ptr<InflightRequest> request;
        std::vector<bool> seen;  // per body_seq duplicate guard
        std::size_t delivered = 0;
        Stopwatch started;  // stamped as the request is written (shard stats)
    };

    /// One replica connection with its demux thread. A NULL channel marks
    /// a BORN-FAILED replica (its endpoint was unreachable at dial time):
    /// it starts failed with no thread and joins the rotation through
    /// reconnect(), like a replica that died mid-session.
    struct Link {
        std::size_t shard = 0;     ///< index into shards_
        std::string label;         ///< "shard 0 replica 1" — error tagging
        ReplicaEndpoint endpoint;  ///< redial address (port 0 = none)

        /// Held by assign() across pending insert + request write, and by
        /// reconnect() across the channel swap: wire order = assign order.
        std::mutex send_mutex;
        std::mutex mutex;  // guards channel swaps, pending, failed
        std::unique_ptr<split::Channel> channel;
        std::unordered_map<std::uint64_t, LinkPending> pending;
        /// Takes no more requests: set by fail_link and close(), cleared
        /// by reconnect.
        bool failed = false;
        /// Published failure (guarded by table_mutex_): set by fail_link,
        /// cleared by reconnect; what replica health and redial read.
        bool needs_reconnect = false;

        std::thread demux;
    };

    /// One body slice and the replicas serving it; a request rides exactly
    /// one healthy replica per shard.
    struct Shard {
        HostInfo host;  ///< the slice (first live replica's handshake)
        std::vector<std::unique_ptr<Link>> replicas;
        std::size_t rr = 0;  ///< round-robin cursor (table_mutex_)
        bool down = false;   ///< no healthy replica left (table_mutex_)
        SessionStats stats;  ///< survives reconnects
    };

    /// Shared constructor body over per-shard replica channels: handshakes,
    /// shard-map validation, then the per-link demux threads.
    void init(std::vector<std::vector<std::unique_ptr<split::Channel>>> shard_replicas,
              std::size_t max_inflight);
    /// Handshakes `channel` and returns what the host advertised; used by
    /// construction, reconnect and the background redialer.
    HostInfo adopt(split::Channel& channel, std::chrono::milliseconds handshake_timeout) const;
    /// Validates a replacement host's slice against shard `shard` (typed
    /// protocol_error on mismatch).
    void require_slice(std::size_t shard, const HostInfo& host) const;
    /// Swaps an already-validated `channel` into FAILED `link` and restarts
    /// its demux. The caller holds reconnect_mutex_ (manual reconnects
    /// and the background redialer are serialized).
    void reconnect(Link& link, std::unique_ptr<split::Channel> channel);
    /// The link's published failure flag.
    bool link_failed(const Link& link) const;
    void maintenance_loop();

    void start_link(Link& link);
    void demux_loop(Link& link);
    /// Handles one reply frame; throws to fail the link.
    void handle_frame(Link& link, const std::string& frame);
    /// Marks the link failed and either fails its pending requests over to
    /// a sibling replica or faults them (labeled) when none survives.
    /// First caller wins; later calls, and calls after close(), are no-ops.
    void fail_link(Link& link, const std::exception_ptr& error);
    /// Writes `request` under `wire_id` to one healthy replica of `shard`
    /// (round-robin) on the calling thread; a failed write goes to
    /// fail_link. False when the shard has no healthy replica.
    bool assign(const std::shared_ptr<InflightRequest>& request, std::size_t shard,
                std::uint64_t wire_id);
    /// Publishes "this shard has no healthy replica" (submit refusals).
    void mark_shard_down(std::size_t shard);
    /// Completes `request` (selector + tail + stats + promise) exactly once.
    void complete(const std::shared_ptr<InflightRequest>& request);
    /// A shard finished (delivered or failed) its share of `request`.
    void shard_done_with(const std::shared_ptr<InflightRequest>& request);

    nn::Layer& head_;
    nn::Layer* noise_;
    nn::Layer& tail_;
    core::Selector selector_;
    split::WireFormat wire_format_;
    RetryPolicy retry_;
    std::chrono::milliseconds handshake_timeout_;
    /// Per-request wait cap in ms (0 = forever). Atomic: the demux loops
    /// and the background redialer read it while set_recv_timeout writes.
    std::atomic<long long> recv_timeout_ms_{0};
    std::size_t window_ = kDefaultMaxInflight;
    split::WireBufferPool uplink_pool_;
    SessionStats stats_;
    std::vector<Shard> shards_;  // sized once in init (Shard is immovable)

    std::mutex finish_mutex_;  // serializes the shared tail forward
    // Guards table_, closed_, and every shard's rr/down and link's
    // needs_reconnect.
    mutable std::mutex table_mutex_;
    std::condition_variable window_cv_;
    std::unordered_map<std::uint64_t, std::shared_ptr<InflightRequest>> table_;
    bool closed_ = false;
    std::atomic<std::uint64_t> next_id_{1};

    // Serializes manual reconnects against the background redialer.
    std::mutex reconnect_mutex_;
    // Background redial (endpoint-based construction only).
    std::mutex maint_mutex_;
    std::condition_variable maint_cv_;
    bool maint_stop_ = false;
    std::thread maintenance_;
};

}  // namespace ens::serve
