#pragma once
// Shared pieces of the optimized-boot suites (optimize_test,
// optimize_daemon_test): the BN-warmed conv bundle both boots load, the
// request inputs, and the per-wire-format tolerance an optimized boot must
// stay within against an unoptimized boot of the same bundle.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/selector.hpp"
#include "serve/bundle.hpp"
#include "serve_harness.hpp"
#include "split/codec.hpp"

namespace ens::serve::harness {

constexpr std::uint64_t kOptimizeSeed = 8100;
// f32: BN folding re-associates float products, so logits may move in the
// last bits. q8: the downlink quantizer may flip one bucket where a folded
// body output lands on a boundary.
constexpr float kF32Tolerance = 1e-4f;
constexpr float kQ8Tolerance = 5e-2f;

inline std::string bundle_dir_for(const std::string& name) {
    const std::filesystem::path dir = std::filesystem::path("bundle_artifacts") / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// BN-warmed conv ensemble written as a bundle — bodies are
/// Conv -> BN -> ReLU -> GAP, so the compiler has a real fold to do.
inline void write_conv_bundle(const std::string& dir, std::size_t num_bodies,
                              const core::Selector& selector) {
    ConvEnsembleParts parts = make_conv_ensemble(kOptimizeSeed, num_bodies, selector.p());
    warm_batchnorm(parts, kOptimizeSeed + 7);
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
}

inline std::vector<Tensor> make_conv_inputs(std::uint64_t data_seed) {
    Rng rng(data_seed);
    return {Tensor::randn(Shape{2, 1, kConvImage, kConvImage}, rng),
            Tensor::randn(Shape{1, 1, kConvImage, kConvImage}, rng),
            Tensor::randn(Shape{3, 1, kConvImage, kConvImage}, rng)};
}

inline float wire_tolerance(split::WireFormat wire) {
    return wire == split::WireFormat::f32 ? kF32Tolerance : kQ8Tolerance;
}

inline void expect_near(const Tensor& a, const Tensor& b, float tolerance, const char* what) {
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(a.at(i), b.at(i), tolerance) << what << " at flat index " << i;
    }
}

}  // namespace ens::serve::harness
