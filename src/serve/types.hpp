#pragma once
// Value types of the ens::serve inference-service API.
//
// serve is the single deployment-facing surface of this repository: an
// InferenceService owns the N deployed server bodies once and serves many
// concurrent ClientSessions, each carrying its own secret Selector, wire
// format, channels and traffic/latency accounting (the per-client state of
// the Ensembler paper's deployment, §III). ShardRouter (and RemoteSession,
// its one-host case) returns the same InferenceResult over a real wire.

#include <cstdint>

#include "split/codec.hpp"
#include "tensor/tensor.hpp"

namespace ens::serve {

struct ServeConfig {
    /// Wire format for sessions that do not pick their own.
    split::WireFormat default_wire_format = split::WireFormat::f32;

    /// from_bundle only: run the graph compiler (nn/compile.hpp — BN
    /// folding, activation fusion, noise baking, repack) over every loaded
    /// server BODY. Outputs stay within the per-wire-format parity
    /// tolerance (bit-exact when no fold applies); the client-side
    /// head/noise/tail are never compiled — the split-point noise is the
    /// wire-observable defense. An optimized service refuses save_bundle.
    bool optimize = false;
};

/// One client inference request: a [B,C,H,W] image batch (a single [C,H,W]
/// image is promoted to B = 1).
struct InferenceRequest {
    Tensor images;

    /// Request id; 0 (default) lets submit() assign a unique one.
    /// Explicit ids advance the auto-assignment counter past them, so they
    /// never collide with assigned ids (uniqueness among explicit ids is
    /// the caller's business).
    std::uint64_t id = 0;
};

struct InferenceResult {
    Tensor logits;
    std::uint64_t request_id = 0;

    /// Time spent waiting for a slot: the remote in-flight window, or
    /// another thread's round trip on the same in-proc session.
    double queue_ms = 0.0;
    double compute_ms = 0.0;  // total_ms - queue_ms
    double total_ms = 0.0;    // submit (head included) -> result ready
};

}  // namespace ens::serve
