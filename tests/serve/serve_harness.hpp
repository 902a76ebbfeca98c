#pragma once
// Shared serving fixtures for the serve tests and the serving benches:
//   - ReactorFixture: an in-process ReactorHost behind a loopback listener,
//     its event loop on a background thread, drained and joined on
//     destruction; serve_shard_plan starts one per shard of a ShardPlan.
//   - bundle_dir_for / save_generation: a deployment written as an on-disk
//     bundle, which is how a test hands it to a serve_daemon process
//     (daemon_harness.hpp execs one).
//   - process_thread_count: the thread inventory the reactor soak and the
//     router's one-thread-per-link test pin.
//
// Also hosts the tiny deterministic split/ensemble model builders the
// serving tests share: same seed -> identical weights, so a client half
// and its oracle are bit-identical copies of the deployment that was
// saved.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/selector.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/noise.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "serve/bundle.hpp"
#include "serve/deployment.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "split/multiparty.hpp"
#include "split/split_model.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve::harness {

/// An in-process reactor on an ephemeral loopback listener, its event loop
/// on a background thread. shutdown-and-join on destruction, so an ASSERT
/// unwind (or a bench's throw) cannot leak the loop.
class ReactorFixture {
public:
    explicit ReactorFixture(std::shared_ptr<DeploymentManager> manager, ReactorConfig config = {})
        : reactor_(std::move(manager), config),
          listener_(0),
          thread_([this] { reactor_.run(listener_); }) {}

    /// Serves one fixed generation of `host`.
    explicit ReactorFixture(std::shared_ptr<BodyHost> host, ReactorConfig config = {})
        : ReactorFixture(std::make_shared<DeploymentManager>(std::move(host)), config) {}

    ~ReactorFixture() { stop(); }

    ReactorFixture(const ReactorFixture&) = delete;
    ReactorFixture& operator=(const ReactorFixture&) = delete;

    void stop() {
        if (thread_.joinable()) {
            reactor_.shutdown();
            thread_.join();
        }
    }

    std::uint16_t port() const { return listener_.port(); }
    ReactorHost& reactor() { return reactor_; }

private:
    ReactorHost reactor_;
    split::ChannelListener listener_;
    std::thread thread_;
};

/// One reactor per shard of `plan` (contiguous slices, as
/// ShardPlan::blocks makes), each hosting its slice of `bodies` — the
/// deployment's non-owned, eval-mode bodies in global order.
inline std::vector<std::unique_ptr<ReactorFixture>> serve_shard_plan(
    const std::vector<nn::Layer*>& bodies, const split::ShardPlan& plan,
    ReactorConfig config = {}) {
    std::vector<std::unique_ptr<ReactorFixture>> hosts;
    for (const std::vector<std::size_t>& shard : plan.server_bodies) {
        std::vector<nn::Layer*> held;
        for (const std::size_t body : shard) {
            held.push_back(bodies[body]);
        }
        auto host = std::make_shared<BodyHost>(std::move(held));
        host->set_shard(shard.front(), bodies.size());
        hosts.push_back(std::make_unique<ReactorFixture>(std::move(host), config));
    }
    return hosts;
}

/// Threads of this process right now (0 when /proc is unavailable — the
/// caller skips the assertion then).
inline std::size_t process_thread_count() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return static_cast<std::size_t>(std::stoul(line.substr(8)));
        }
    }
    return 0;
}

// ---------------------------------------------------------------- bundles

/// Fresh per-test bundle directory under bundle_artifacts/ (kept after the
/// run so CI can upload it when the test fails).
inline std::string bundle_dir_for(const std::string& name) {
    const std::filesystem::path dir = std::filesystem::path("bundle_artifacts") / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// Writes a bundle whose BODIES come from `body_parts` but whose client
/// half (head, split-point noise when the parts carry one, tail, selector)
/// comes from `client_parts` — the retrain-and-roll shape: a generation 2
/// replaces body weights only, so the deployed clients keep working. Pass
/// the same parts twice for a plain save.
template <typename Parts>
void save_generation(const std::string& dir, Parts& client_parts, Parts& body_parts,
                     const core::Selector& selector) {
    BundleArtifacts artifacts;
    for (nn::LayerPtr& body : body_parts.bodies) {
        artifacts.bodies.push_back(body.get());
    }
    artifacts.head = client_parts.head.get();
    if constexpr (requires { client_parts.noise; }) {
        artifacts.noise = client_parts.noise.get();
    }
    artifacts.tail = client_parts.tail.get();
    artifacts.selector = &selector;
    save_bundle(dir, artifacts);
}

// ---------------------------------------------------------------- models
// Tiny linear geometries, deterministic per seed. Small on purpose: these
// tests prove protocol and routing behavior, not model quality.

constexpr std::int64_t kIn = 3;
constexpr std::int64_t kHidden = 4;
constexpr std::int64_t kClasses = 2;

/// Tiny linear split pipeline; same seed -> identical weights.
inline split::SplitModel make_linear_split(std::uint64_t seed) {
    Rng rng(seed);
    split::SplitModel model;
    model.head = std::make_unique<nn::Sequential>();
    model.head->emplace<nn::Linear>(kIn, kHidden, rng);
    model.body = std::make_unique<nn::Sequential>();
    model.body->emplace<nn::Linear>(kHidden, kHidden, rng);
    model.tail = std::make_unique<nn::Sequential>();
    model.tail->emplace<nn::Linear>(kHidden, kClasses, rng);
    return model;
}

/// N-body ensemble geometry: shared head, per-body nets, a tail sized for
/// the P-map selector concat. Deterministic per-part seeds, so every copy
/// built from one seed (host, client half, oracle) holds the same weights.
struct EnsembleParts {
    std::unique_ptr<nn::Sequential> head;
    std::vector<nn::LayerPtr> bodies;
    std::unique_ptr<nn::Sequential> tail;
};

inline EnsembleParts make_linear_ensemble(std::uint64_t seed, std::size_t num_bodies,
                                          std::size_t num_selected) {
    EnsembleParts parts;
    Rng head_rng(seed);
    parts.head = std::make_unique<nn::Sequential>();
    parts.head->emplace<nn::Linear>(kIn, kHidden, head_rng);
    for (std::size_t k = 0; k < num_bodies; ++k) {
        Rng body_rng(seed + 1 + k);
        auto body = std::make_unique<nn::Sequential>();
        body->emplace<nn::Linear>(kHidden, kHidden, body_rng);
        parts.bodies.push_back(std::move(body));
    }
    Rng tail_rng(seed + 100);
    parts.tail = std::make_unique<nn::Sequential>();
    parts.tail->emplace<nn::Linear>(static_cast<std::int64_t>(num_selected) * kHidden, kClasses,
                                    tail_rng);
    return parts;
}

inline void set_eval(EnsembleParts& parts) {
    parts.head->set_training(false);
    for (nn::LayerPtr& body : parts.bodies) {
        body->set_training(false);
    }
    parts.tail->set_training(false);
}

// ----------------------------------------------------- conv + BN ensemble
// A tiny convolutional ensemble with BatchNorm on BOTH sides of the split
// and a fixed split-point noise mask — the state that ONLY full-fidelity
// checkpoints (nn::save_state: parameters + running statistics + noise
// buffer) carry across a process boundary. The bundle restart-parity tests
// use it so a restored daemon that silently dropped any of that state
// would diverge from the oracle bit-for-bit. warm_batchnorm() stands in
// for training: it drives the running statistics away from their init so
// eval-mode outputs actually depend on checkpointed buffer state.

constexpr std::int64_t kConvImage = 4;     // input images are [1, 4, 4]
constexpr std::int64_t kConvHeadCh = 3;    // split-point feature channels
constexpr std::int64_t kConvBodyCh = 4;    // per-body feature width after pool

struct ConvEnsembleParts {
    std::unique_ptr<nn::Sequential> head;   // Conv -> BN -> ReLU
    std::unique_ptr<nn::FixedNoise> noise;  // fixed split-point mask
    std::vector<nn::LayerPtr> bodies;       // Conv -> BN -> ReLU -> GAP, [B, kConvBodyCh]
    std::unique_ptr<nn::Sequential> tail;   // Linear(P * kConvBodyCh -> kClasses)
};

inline nn::LayerPtr make_conv_body(std::uint64_t seed, std::size_t body_index) {
    Rng rng(seed + 1 + body_index);
    auto body = std::make_unique<nn::Sequential>();
    body->emplace<nn::Conv2d>(kConvHeadCh, kConvBodyCh, /*kernel=*/3, /*stride=*/1,
                              /*padding=*/1, rng);
    body->emplace<nn::BatchNorm2d>(kConvBodyCh);
    body->emplace<nn::ReLU>();
    body->emplace<nn::GlobalAvgPool>();
    return body;
}

inline ConvEnsembleParts make_conv_ensemble(std::uint64_t seed, std::size_t num_bodies,
                                            std::size_t num_selected) {
    ConvEnsembleParts parts;
    Rng head_rng(seed);
    parts.head = std::make_unique<nn::Sequential>();
    parts.head->emplace<nn::Conv2d>(1, kConvHeadCh, /*kernel=*/3, /*stride=*/1, /*padding=*/1,
                                    head_rng);
    parts.head->emplace<nn::BatchNorm2d>(kConvHeadCh);
    parts.head->emplace<nn::ReLU>();
    Rng noise_rng(seed + 50);
    parts.noise = std::make_unique<nn::FixedNoise>(Shape{kConvHeadCh, kConvImage, kConvImage},
                                                   0.1f, noise_rng);
    for (std::size_t k = 0; k < num_bodies; ++k) {
        parts.bodies.push_back(make_conv_body(seed, k));
    }
    Rng tail_rng(seed + 100);
    parts.tail = std::make_unique<nn::Sequential>();
    parts.tail->emplace<nn::Linear>(static_cast<std::int64_t>(num_selected) * kConvBodyCh,
                                    kClasses, tail_rng);
    return parts;
}

/// Drives the BatchNorm running statistics of every part away from their
/// initialization (training-mode forwards, the "training" of these tiny
/// deployments). Must run BEFORE set_eval/save.
inline void warm_batchnorm(ConvEnsembleParts& parts, std::uint64_t data_seed,
                           int batches = 3) {
    Rng rng(data_seed);
    for (int i = 0; i < batches; ++i) {
        const Tensor images = Tensor::randn(Shape{5, 1, kConvImage, kConvImage}, rng);
        const Tensor features = parts.noise->forward(parts.head->forward(images));
        for (nn::LayerPtr& body : parts.bodies) {
            body->forward(features);
        }
    }
}

inline void set_eval(ConvEnsembleParts& parts) {
    parts.head->set_training(false);
    parts.noise->set_training(false);
    for (nn::LayerPtr& body : parts.bodies) {
        body->set_training(false);
    }
    parts.tail->set_training(false);
}

/// Non-owning forward-only chain — lets an oracle treat head + separate
/// noise as the single "client head" a CollaborativeSession expects.
class ChainLayer final : public nn::Layer {
public:
    explicit ChainLayer(std::vector<nn::Layer*> parts) : parts_(std::move(parts)) {}

    Tensor forward(const Tensor& input) override {
        Tensor value = input;
        for (nn::Layer* part : parts_) {
            value = part->forward(value);
        }
        return value;
    }

    Tensor backward(const Tensor&) override {
        throw std::logic_error("ChainLayer is forward-only (oracle helper)");
    }

    std::string name() const override { return "Chain"; }

private:
    std::vector<nn::Layer*> parts_;
};

}  // namespace ens::serve::harness
