#pragma once
// Shared pieces of the bundle restart-parity suites (bundle_restart_test,
// bundle_restart_daemon_test): the per-test bundle directory, the
// BN-warmed conv ensemble written as a bundle, the request inputs and the
// in-proc sequential oracle over the live trained parts.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/selector.hpp"
#include "serve/bundle.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"

namespace ens::serve::harness {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 6100;
constexpr std::chrono::milliseconds kRequestTimeout{120000};
constexpr std::size_t kInflight = 4;

/// Fresh per-test bundle directory under bundle_artifacts/ (kept after the
/// run so CI can upload it when the test fails).
inline std::string bundle_dir_for(const std::string& name) {
    const fs::path dir = fs::path("bundle_artifacts") / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/// Trains (BN-warms) a conv ensemble and writes it as a bundle. The live
/// parts stay with the caller — they are the oracle.
inline ConvEnsembleParts make_trained_bundle(const std::string& dir, std::size_t num_bodies,
                                             const core::Selector& selector) {
    ConvEnsembleParts parts =
        make_conv_ensemble(kSeed, num_bodies, selector.p());
    warm_batchnorm(parts, kSeed + 7);
    set_eval(parts);

    BundleArtifacts artifacts;
    for (nn::LayerPtr& body : parts.bodies) {
        artifacts.bodies.push_back(body.get());
    }
    artifacts.head = parts.head.get();
    artifacts.noise = parts.noise.get();
    artifacts.tail = parts.tail.get();
    artifacts.selector = &selector;
    save_bundle(dir, artifacts);
    return parts;
}

inline std::vector<Tensor> make_inputs(std::uint64_t data_seed) {
    Rng rng(data_seed);
    return {Tensor::randn(Shape{2, 1, kConvImage, kConvImage}, rng),
            Tensor::randn(Shape{1, 1, kConvImage, kConvImage}, rng),
            Tensor::randn(Shape{3, 1, kConvImage, kConvImage}, rng)};
}

/// In-proc sequential oracle over the LIVE trained parts (head + noise
/// chained into the single client head a CollaborativeSession expects).
class Oracle {
public:
    Oracle(ConvEnsembleParts& parts, const core::Selector& selector,
           split::WireFormat wire)
        : chain_({parts.head.get(), parts.noise.get()}) {
        for (nn::LayerPtr& body : parts.bodies) {
            bodies_.push_back(body.get());
        }
        session_ = std::make_unique<split::CollaborativeSession>(
            chain_, bodies_, *parts.tail,
            [&selector](const std::vector<Tensor>& features) {
                return selector.apply(features);
            },
            uplink_, downlink_, wire);
    }

    Tensor infer(const Tensor& images) { return session_->infer(images); }

private:
    ChainLayer chain_;
    std::vector<nn::Layer*> bodies_;
    split::InProcChannel uplink_;
    split::InProcChannel downlink_;
    std::unique_ptr<split::CollaborativeSession> session_;
};

}  // namespace ens::serve::harness
