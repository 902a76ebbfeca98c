#pragma once
// Value types of the ens::serve inference-service API.
//
// serve is the single deployment-facing surface of this repository: an
// InferenceService owns the N deployed server bodies once and serves many
// concurrent ClientSessions, each carrying its own secret Selector, wire
// format, connection and traffic/latency accounting (the per-client state
// of the Ensembler paper's deployment, §III). Every session is a
// RemoteSession, so ShardRouter (of which RemoteSession is the one-host
// case) returns every InferenceResult, in-proc or over a real wire.

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

struct InferenceResult {
    Tensor logits;
    std::uint64_t request_id = 0;

    /// Time submit() spent parked on a full in-flight window.
    double queue_ms = 0.0;
    double compute_ms = 0.0;  // total_ms - queue_ms
    double total_ms = 0.0;    // submit (head included) -> result ready
};

}  // namespace ens::serve
