#pragma once
// Deployment bundles: the versioned on-disk form of a trained collaborative
// -inference deployment, so daemons and clients boot purely from disk with
// no trainer (and no shared seeds) in the process.
//
// A bundle is a directory:
//
//   dir/
//     MANIFEST.ens    server-shareable: bundle version, deployment size N,
//                     accepted wire formats, suggested in-flight window,
//                     per-body arch spec + checkpoint file name, a
//                     suggested shard plan (contiguous slices tiling
//                     [0, N)), and — since v2 — optional per-shard replica
//                     endpoints plus the suggested retry/failover policy,
//                     so a --bundle client can dial the whole replicated
//                     deployment from the manifest alone.
//     body_000.ckpt   one nn::save_state checkpoint per server body. A
//     ...             shard host materializes ONLY its slice's files, so
//     body_N-1.ckpt   no §III-D shard provider needs the other bodies on
//                     disk at all.
//     CLIENT.ens      the client's SECRET half: the stage-3 head, optional
//                     split-point noise, tail (arch specs + inline
//                     save_state payloads) and the secret Selector. Never
//                     ship this file to a body host — the selector is the
//                     entire secret of the Ensembler scheme (§III-B), and
//                     BodyHost::from_bundle never reads it.
//
// Restores are bit-exact: specs rebuild identical structure, save_state
// carries parameters + buffers (BN running statistics, noise masks), so a
// fresh process serves outputs bit-identical to the trainer's in-proc
// oracle (tests/serve/bundle_restart_test.cpp pins this across exec'd
// serve_daemon processes, sharded and pipelined).
//
// Every loader treats bundle files as UNTRUSTED input: counts are bounded
// before allocation, file names are confined to the bundle directory, and
// any corruption/truncation/version mismatch is a typed
// ens::Error{checkpoint_error} naming the offending file.

#include <cstdint>
#include <string>
#include <vector>

#include "core/selector.hpp"
#include "nn/arch.hpp"
#include "nn/layer.hpp"
#include "serve/protocol.hpp"
#include "split/codec.hpp"

namespace ens::core {
class Ensembler;
}

namespace ens::serve {

/// Bundle format version. The rule: a loader refuses any other version by
/// name (no silent best-effort parse of newer layouts); bump it whenever
/// the on-disk layout changes incompatibly. v2 appended the optional
/// per-shard replica endpoint lists and the retry policy to the manifest.
inline constexpr std::uint32_t kBundleVersion = 2;

inline constexpr const char* kManifestFileName = "MANIFEST.ens";
inline constexpr const char* kClientFileName = "CLIENT.ens";

/// Hard ceiling on deployment size a manifest may declare (hostile-input
/// bound, far above any plausible ensemble).
inline constexpr std::size_t kMaxBundleBodies = 4096;

/// Hard ceiling on replicas a manifest may declare per shard slice.
inline constexpr std::size_t kMaxBundleReplicas = 64;

/// One contiguous slice of the deployment's bodies (a §III-D shard).
struct BundleShardSlice {
    std::size_t body_begin = 0;
    std::size_t body_count = 0;
};

/// One server body as recorded in the manifest.
struct BundleBodyEntry {
    std::string checkpoint_file;  ///< plain file name, relative to the dir
    nn::ArchSpec arch;
};

/// One dialable replica address of a shard slice, as recorded in the
/// manifest. Mirrors serve::ReplicaEndpoint without pulling the router
/// headers into the bundle layer.
struct BundleReplicaEndpoint {
    std::string host;
    std::uint16_t port = 0;
};

/// Retry/failover policy knobs recorded in the manifest (v2+), so clients
/// booting from a bundle inherit the deployment's tuned policy. Values
/// mirror serve::RetryPolicy; zero backoff is legal (immediate retry).
struct BundleRetryConfig {
    std::uint32_t max_attempts = 4;
    std::uint32_t backoff_ms = 50;
    std::uint32_t backoff_cap_ms = 2000;
};

/// Parsed MANIFEST.ens (the server-shareable part).
struct BundleManifest {
    std::size_t total_bodies = 0;
    std::uint32_t wire_mask = 0;  ///< accepted split::WireFormat bits
    split::WireFormat default_wire_format = split::WireFormat::f32;
    std::size_t max_inflight = kDefaultMaxInflight;  ///< suggested host window
    std::vector<BundleBodyEntry> bodies;             ///< size == total_bodies
    std::vector<BundleShardSlice> shard_plan;        ///< tiles [0, total)
    /// Replica addresses per shard slice: empty (no recorded deployment
    /// topology) or parallel to shard_plan with >= 1 endpoint each.
    std::vector<std::vector<BundleReplicaEndpoint>> shard_endpoints;
    BundleRetryConfig retry;  ///< suggested client retry/failover policy
};

/// Parsed CLIENT.ens (the secret client half), layers restored and in eval
/// mode. Owning — hand the layers to a RemoteSession/ShardRouter (which
/// take references) and keep this struct alive, or to an InferenceService
/// via from_bundle.
struct ClientArtifacts {
    nn::LayerPtr head;
    nn::LayerPtr noise;  ///< null when the deployment has no split-point noise
    nn::LayerPtr tail;
    core::Selector selector{1, {0}};
    split::WireFormat default_wire_format = split::WireFormat::f32;
};

/// What save_bundle snapshots — non-owning views of live (trained) objects.
/// `noise` may be null; everything else is required. An empty shard_plan
/// writes the single whole-deployment slice [0, N).
struct BundleArtifacts {
    std::vector<nn::Layer*> bodies;
    nn::Layer* head = nullptr;
    nn::Layer* noise = nullptr;
    nn::Layer* tail = nullptr;
    const core::Selector* selector = nullptr;
    std::uint32_t wire_mask = split::all_wire_formats_mask();
    split::WireFormat default_wire_format = split::WireFormat::f32;
    std::size_t max_inflight = kDefaultMaxInflight;
    std::vector<BundleShardSlice> shard_plan;
    /// Empty, or parallel to the effective shard plan with >= 1 replica
    /// address per shard (each host non-empty, each port nonzero).
    std::vector<std::vector<BundleReplicaEndpoint>> shard_endpoints;
    BundleRetryConfig retry;
};

/// Writes a complete bundle (manifest + per-body checkpoints + client
/// file) into `dir`, creating it if needed. Existing bundle files are
/// overwritten atomically enough for tests and tooling (write-then-done;
/// no partial manifest is ever observable because the manifest is written
/// last).
void save_bundle(const std::string& dir, const BundleArtifacts& artifacts);

/// Snapshots a trained Ensembler: all N member bodies server-side, the
/// stage-3 head/noise/tail + secret Selector as the client half. Requires
/// stages 1-3 to have run.
void save_bundle(const std::string& dir, core::Ensembler& ensembler,
                 std::vector<BundleShardSlice> shard_plan = {});

/// Reads and validates MANIFEST.ens. Typed checkpoint_error naming the
/// file on any corruption, bound violation, version mismatch or
/// inconsistent shard plan.
BundleManifest load_bundle_manifest(const std::string& dir);

/// Rebuilds and restores bodies [body_begin, body_begin + body_count) —
/// pass body_count == npos for "through the end". Layers come back in eval
/// mode, ready for a BodyHost. Only this slice's checkpoint files are
/// touched.
std::vector<nn::LayerPtr> load_bundle_bodies(const std::string& dir,
                                             const BundleManifest& manifest,
                                             std::size_t body_begin = 0,
                                             std::size_t body_count = static_cast<std::size_t>(-1));

/// Reads CLIENT.ens: rebuilds head/noise/tail (eval mode) and the secret
/// selector. Validates the selector covers `expected_bodies` when nonzero.
ClientArtifacts load_bundle_client(const std::string& dir, std::size_t expected_bodies = 0);

}  // namespace ens::serve
