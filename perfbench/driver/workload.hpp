#pragma once
// The benchmark's workloads and the seeded inputs each one runs on.
//
// Every thread count a run depends on is fixed here, per workload, and
// echoed into the result's metadata line.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/selector.hpp"
#include "split/codec.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

// Fixed for every workload: the paper's N = 10 bodies with P = 4 selected,
// daemons booted with --optimize (what production runs), ENS_THREADS=1 in
// the daemons (two workers then keep four threads busy on a four-core
// machine) and in the client (the paper's client is an edge device), and a
// one-second warm-up before the timed window.
inline constexpr std::size_t kBodies = 10;
inline constexpr std::size_t kSelected = 4;
inline constexpr std::size_t kHostThreads = 1;
inline constexpr std::size_t kClientThreads = 1;
inline constexpr double kWarmupSeconds = 1.0;

struct WorkloadSpec {
    std::string name;
    // --- deployment ---
    bool cifar100 = false;       ///< SynthCifar100 images, no MaxPool: [16,32,32] split map
    bool resnet_bodies = true;   ///< ResNet-18 bodies; else GlobalAvgPool + Linear(16->128)
    ens::split::WireFormat wire = ens::split::WireFormat::f32;
    bool exact = false;          ///< logits must match the oracle bit for bit
    // --- hosts ---
    std::size_t shards = 1;      ///< daemons; >1 means a ShardRouter client
    std::size_t host_workers = 2;   ///< serve_daemon --workers
    // --- load ---
    std::size_t connections = 1;
    std::size_t window = 1;      ///< in-flight requests per connection
    bool open_loop = false;
    double rate_rps = 0.0;       ///< open loop: arrivals per second
    double min_gap_ms = 0.0;     ///< open loop: dead time between two arrivals
    std::size_t setups = 5;      ///< boots per run; setup_s is their median
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec& find_workload(const std::string& name);

/// Global bodies [begin, end) that shard `shard` of the workload hosts.
inline std::pair<std::size_t, std::size_t> shard_slice(const WorkloadSpec& spec,
                                                       std::size_t shard) {
    return {shard * kBodies / spec.shards, (shard + 1) * kBodies / spec.shards};
}

/// What one seed turns into: a bundle on disk, an image pool, the request
/// order over it, and the oracle's logits for every pool image.
struct Inputs {
    std::string bundle_dir;
    ens::Shape split_shape;  ///< [1, C, H, W] the bodies consume
    std::vector<ens::Tensor> images;    ///< [1, 3, 32, 32] each
    std::vector<ens::Tensor> expected;  ///< in-proc oracle logits, per image
    std::vector<std::size_t> order;     ///< image index of request r is order[r % size]
    /// One real uplink tensor (head output) and downlink tensor (body
    /// output), for the codec and selector timings.
    ens::Tensor uplink_sample;
    ens::Tensor downlink_sample;
    ens::core::Selector selector{1, {0}};  ///< the bundle's secret selector
};

/// Writes the workload's bundle under `work_dir` and computes the oracle
/// with split::CollaborativeSession over the bundle's unoptimized bodies.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, const std::string& work_dir);

/// Logits check: bit-identical when `exact`, otherwise within the graph
/// compiler's f32 parity tolerance (1e-4), scaled by the logits' magnitude.
bool logits_match(const ens::Tensor& actual, const ens::Tensor& expected, bool exact);

}  // namespace perfbench
