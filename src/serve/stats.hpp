#pragma once
// Per-session serving statistics: request/image counters, queue and
// end-to-end latency percentiles (wall clock via ens::Stopwatch), and
// failover/retry counters. Wire traffic is NOT duplicated here — each
// session owns its Channel instances, whose codec-level byte counters
// remain the source of truth.
//
// Thread-safe: completions are recorded (by submitting threads in-proc,
// by demux threads over a wire) while other threads read the accessors.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace ens::serve {

struct LatencySummary {
    std::uint64_t count = 0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
};

/// Point-in-time copy of a host's operational gauges (plain integers —
/// safe to store, print, or serialize into a bench row).
struct GaugeSnapshot {
    std::uint64_t connections_held = 0;   ///< live connections right now
    std::uint64_t connections_total = 0;  ///< accepted since start
    /// Torn down on an error: protocol error, oversize frame, duplicate
    /// in-flight id, recv error or worker failure. A clean client close
    /// and the shutdown drain's final close are not drops.
    std::uint64_t connections_dropped = 0;
    std::uint64_t active_requests = 0;    ///< admitted, reply not yet sent
    std::uint64_t requests_served = 0;    ///< completed (all body replies sent)
    std::uint64_t swaps_completed = 0;    ///< live bundle hot-swaps applied
    std::uint64_t worker_threads = 0;     ///< fixed compute-thread budget
};

/// Host-side operational gauges, updated lock-free from the reactor and
/// its workers and readable concurrently by benches/tests — the
/// observability surface that lets "the reactor holds N connections on W
/// threads" be ASSERTED instead of inferred. Counters only; latency
/// percentiles stay client-side in SessionStats, where the end-to-end
/// clock lives.
class HostGauges {
public:
    std::atomic<std::uint64_t> connections_held{0};
    std::atomic<std::uint64_t> connections_total{0};
    std::atomic<std::uint64_t> connections_dropped{0};
    std::atomic<std::uint64_t> active_requests{0};
    std::atomic<std::uint64_t> requests_served{0};

    GaugeSnapshot snapshot() const {
        GaugeSnapshot snap;
        snap.connections_held = connections_held.load(std::memory_order_relaxed);
        snap.connections_total = connections_total.load(std::memory_order_relaxed);
        snap.connections_dropped = connections_dropped.load(std::memory_order_relaxed);
        snap.active_requests = active_requests.load(std::memory_order_relaxed);
        snap.requests_served = requests_served.load(std::memory_order_relaxed);
        return snap;
    }
};

class SessionStats {
public:
    /// Records one completed request.
    void record(double total_ms, double queue_ms, std::int64_t images);

    /// Records one in-flight request moved onto a surviving replica after
    /// its link died (ShardRouter failover). The request is NOT double
    /// counted by record() — it completes once, on whichever replica
    /// delivered it.
    void record_failover();

    /// Records one reconnection attempt against a failed replica (the
    /// router's background re-admission loop and RetryPolicy-governed
    /// redials), successful or not.
    void record_retry();

    std::uint64_t requests() const;
    std::uint64_t images() const;

    /// Failover observability (see record_failover / record_retry).
    std::uint64_t failovers() const;
    std::uint64_t retries() const;

    /// Nearest-rank percentiles over end-to-end request latency.
    LatencySummary latency() const;

    double mean_queue_ms() const;

    void reset();

private:
    mutable std::mutex mutex_;
    std::vector<double> total_ms_;
    double queue_ms_sum_ = 0.0;
    std::uint64_t images_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t retries_ = 0;
};

}  // namespace ens::serve
