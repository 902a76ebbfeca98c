#pragma once
// Retry/backoff policy shared by everything in ens::serve that redials a
// shard replica: ShardRouter's in-flight failover (how many times one
// request may be replayed onto a sibling replica), its background
// re-admission loop (how long to wait between redial attempts), and
// replicated client construction (per-attempt connect/handshake budget, so
// a black-holed endpoint cannot stall the constructor — see the
// tcp_connect timeout overload in split/tcp_channel.hpp).
//
// Backoff is exponential with DETERMINISTIC jitter: attempt k waits
// base * 2^k plus a jitter share derived from splitmix64(seed ^ k), capped
// at max_backoff. Determinism matters here the same way it does for the
// noise layers — the chaos tests replay a scripted failure schedule and
// assert the exact reconnect cadence, which a wall-clock-seeded PRNG would
// turn into flake.

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace ens::serve {

struct RetryPolicy {
    /// Times one request may be moved onto a surviving replica before its
    /// future faults typed (counted across ALL of the request's failovers,
    /// not per shard). Also bounds nothing about background redial — the
    /// router keeps re-admitting a dead replica forever, at max_backoff
    /// cadence, because a recovered replica is strictly better than a
    /// permanently degraded shard.
    std::size_t max_attempts = 4;
    /// Wait before redial attempt 0; doubles per attempt.
    std::chrono::milliseconds base_backoff{50};
    /// Ceiling on any single wait (cap applied after jitter).
    std::chrono::milliseconds max_backoff{2000};
    /// Seed of the deterministic jitter stream (see backoff_for).
    std::uint64_t jitter_seed = 0x656e735f72657479ULL;  // "ens_retry"
    /// Per-attempt budget for tcp_connect on a replica endpoint.
    std::chrono::milliseconds connect_timeout{2000};
    /// Per-attempt budget for reading the replacement host's handshake.
    std::chrono::milliseconds handshake_timeout{30000};

    /// Wait before redial attempt `attempt` (0-based):
    /// min(max_backoff, base * 2^attempt + jitter), where jitter is a
    /// deterministic function of (jitter_seed, attempt) in
    /// [0, base * 2^attempt / 2]. Same policy + same attempt -> same wait,
    /// on every run.
    std::chrono::milliseconds backoff_for(std::size_t attempt) const;
};

}  // namespace ens::serve
