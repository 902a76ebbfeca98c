#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/selector.hpp"
#include "data/synth_cifar10.hpp"
#include "data/synth_cifar100.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/resnet.hpp"
#include "nn/sequential.hpp"
#include "serve/bundle.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"
#include "split/split_model.hpp"

namespace perfbench {

using namespace ens;

namespace {

constexpr std::int64_t kWidth = 16;
constexpr std::int64_t kImage = 32;
constexpr std::size_t kPoolImages = 32;
constexpr std::size_t kOrderLength = 4096;
constexpr float kF32Tolerance = 1e-4f;

std::vector<WorkloadSpec> make_workloads() {
    std::vector<WorkloadSpec> all;

    // The paper's CIFAR-10 deployment under saturation: closed loop, two
    // connections each keeping a window of 4 full, body compute dominates.
    WorkloadSpec saturate;
    saturate.name = "ens_saturate";
    saturate.connections = 2;
    saturate.window = 4;
    all.push_back(saturate);

    // Same bundle and daemon, one regular user: open loop at about a third
    // of one request's service rate (~17 ms), window 1 — the critical path.
    // The dead time keeps two requests from overlapping while the service
    // time stays under it, so latency measures one request, not a queue.
    WorkloadSpec lockstep = saturate;
    lockstep.name = "ens_lockstep";
    lockstep.connections = 1;
    lockstep.window = 1;
    lockstep.open_loop = true;
    lockstep.rate_rps = 20.0;
    lockstep.min_gap_ms = 40.0;
    all.push_back(lockstep);

    // §III-D sharding with near-free bodies over q8: codec, framing, fan-out
    // and the straggler shard dominate.
    WorkloadSpec shard;
    shard.name = "shard_wire";
    shard.cifar100 = true;
    shard.resnet_bodies = false;
    shard.wire = split::WireFormat::q8;
    shard.exact = true;
    shard.shards = 2;
    shard.host_workers = 1;
    shard.connections = 1;
    shard.window = 8;
    shard.open_loop = true;
    shard.rate_rps = 200.0;
    shard.setups = 9;  // a boot takes ~15 ms; more of them steady the median
    all.push_back(shard);
    return all;
}

nn::ResNetConfig arch_for(const WorkloadSpec& spec) {
    nn::ResNetConfig arch;
    arch.image_size = kImage;
    arch.base_width = kWidth;
    arch.num_classes = spec.cifar100 ? 100 : 10;
    arch.include_maxpool = !spec.cifar100;
    return arch;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
    static const std::vector<WorkloadSpec> all = make_workloads();
    return all;
}

const WorkloadSpec& find_workload(const std::string& name) {
    for (const WorkloadSpec& spec : workloads()) {
        if (spec.name == name) {
            return spec;
        }
    }
    throw std::invalid_argument("unknown workload " + name);
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, const std::string& work_dir) {
    const nn::ResNetConfig arch = arch_for(spec);
    const Rng root(seed);

    // --- the deployment, written as a bundle ---
    std::vector<nn::LayerPtr> bodies;
    nn::LayerPtr head;
    for (std::size_t k = 0; k < kBodies; ++k) {
        Rng rng = root.fork_named("body").fork(k);
        split::SplitModel part = split::build_split_resnet18(arch, rng);
        if (k == 0) {
            head = std::move(part.head);
        }
        if (spec.resnet_bodies) {
            bodies.push_back(std::move(part.body));
        } else {
            auto body = std::make_unique<nn::Sequential>();
            body->emplace<nn::GlobalAvgPool>();
            body->emplace<nn::Linear>(kWidth, nn::resnet18_feature_width(arch), rng);
            bodies.push_back(std::move(body));
        }
    }
    Rng tail_rng = root.fork_named("tail");
    auto tail = std::make_unique<nn::Sequential>();
    tail->emplace<nn::Linear>(
        static_cast<std::int64_t>(kSelected) * nn::resnet18_feature_width(arch),
        arch.num_classes, tail_rng);
    Rng selector_rng = root.fork_named("selector");
    const core::Selector selector = core::Selector::random(kBodies, kSelected, selector_rng);

    serve::BundleArtifacts artifacts;
    for (nn::LayerPtr& body : bodies) {
        body->set_training(false);
        artifacts.bodies.push_back(body.get());
    }
    head->set_training(false);
    tail->set_training(false);
    artifacts.head = head.get();
    artifacts.tail = tail.get();
    artifacts.selector = &selector;
    artifacts.default_wire_format = spec.wire;
    for (std::size_t s = 0; s < spec.shards; ++s) {
        const auto [begin, end] = shard_slice(spec, s);
        artifacts.shard_plan.push_back(serve::BundleShardSlice{begin, end - begin});
    }
    Inputs inputs;
    inputs.bundle_dir = (std::filesystem::path(work_dir) / "bundle").string();
    std::filesystem::create_directories(inputs.bundle_dir);
    serve::save_bundle(inputs.bundle_dir, artifacts);

    // --- images and request order ---
    std::unique_ptr<data::Dataset> dataset;
    if (spec.cifar100) {
        dataset = std::make_unique<data::SynthCifar100>(kPoolImages, seed, kImage);
    } else {
        dataset = std::make_unique<data::SynthCifar10>(kPoolImages, seed, kImage);
    }
    for (std::size_t i = 0; i < kPoolImages; ++i) {
        const Tensor image = dataset->get(i).image;
        inputs.images.push_back(
            image.reshaped(Shape{1, image.dim(0), image.dim(1), image.dim(2)}));
    }
    Rng order_rng = root.fork_named("order");
    inputs.order.resize(kOrderLength);
    for (std::size_t& index : inputs.order) {
        index = static_cast<std::size_t>(order_rng.next_u64() % kPoolImages);
    }

    // --- oracle: the in-proc sequential session over the same bundle ---
    const serve::BundleManifest manifest = serve::load_bundle_manifest(inputs.bundle_dir);
    std::vector<nn::LayerPtr> oracle_bodies =
        serve::load_bundle_bodies(inputs.bundle_dir, manifest);
    serve::ClientArtifacts client = serve::load_bundle_client(inputs.bundle_dir, kBodies);
    std::vector<nn::Layer*> body_ptrs;
    for (nn::LayerPtr& body : oracle_bodies) {
        body_ptrs.push_back(body.get());
    }
    split::InProcChannel uplink;
    split::InProcChannel downlink;
    inputs.selector = client.selector;
    const core::Selector& selector_ref = inputs.selector;
    split::CollaborativeSession oracle(
        *client.head, body_ptrs, *client.tail,
        [&selector_ref](const std::vector<Tensor>& maps) { return selector_ref.apply(maps); },
        uplink, downlink, spec.wire);
    for (const Tensor& image : inputs.images) {
        inputs.expected.push_back(oracle.infer(image));
    }
    inputs.uplink_sample = client.head->forward(inputs.images.front());
    inputs.split_shape = inputs.uplink_sample.shape();
    inputs.downlink_sample = oracle_bodies.front()->forward(inputs.uplink_sample);
    return inputs;
}

bool logits_match(const Tensor& actual, const Tensor& expected, bool exact) {
    if (!actual.defined() || actual.shape() != expected.shape()) {
        return false;
    }
    float scale = 1.0f;
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        scale = std::max(scale, std::fabs(expected.at(i)));
    }
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        const float a = actual.at(i);
        const float b = expected.at(i);
        if (exact ? !(a == b) : !(std::fabs(a - b) <= kF32Tolerance * scale)) {
            return false;
        }
    }
    return true;
}

}  // namespace perfbench
