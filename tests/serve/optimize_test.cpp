// Optimized-boot parity: a deployment booted with the graph compiler on
// (ServeConfig::optimize / BodyHost::from_bundle(..., optimize = true))
// must serve the SAME answers as an unoptimized boot of the SAME bundle,
// pinned per wire format:
//
//   f32  tolerance-class — BN folding re-associates float products, so
//        logits may move in the last bits but stay within kF32Tolerance;
//        the test also asserts they DO move (bit-difference), proving the
//        compiled path is actually exercised rather than silently skipped.
//   q8   the downlink quantizer may flip a bucket where the folded body
//        output lands on a boundary; one bucket step through the tail
//        stays within kQ8Tolerance.
//
// Only server BODIES are ever compiled: the client half (head, split-point
// noise, tail, selector) is byte-identical in both boots, so the uplink —
// the wire an adversary observes — carries exactly the same defense.
//
// The same parity holds across processes: the exec'd serve_daemon booted
// with --optimize matches one booted from the same bundle without it.
//
// Also pinned: a graph with nothing to fold (Linear-only bodies) comes
// back BIT-exact under optimize, and an optimized service refuses
// save_bundle typed (compiled bodies have no spec representation).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "daemon_harness.hpp"
#include "nn/conv2d.hpp"
#include "nn/sequential.hpp"
#include "serve/bundle.hpp"
#include "serve/remote.hpp"
#include "serve/service.hpp"
#include "serve_harness.hpp"
#include "split/codec.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

namespace fs = std::filesystem;
using harness::bundle_dir_for;

constexpr std::uint64_t kSeed = 8100;
// f32: BN folding re-associates float products, so logits may move in the
// last bits. q8: the downlink quantizer may flip one bucket where a folded
// body output lands on a boundary.
constexpr float kF32Tolerance = 1e-4f;
constexpr float kQ8Tolerance = 5e-2f;
constexpr std::chrono::milliseconds kRequestTimeout{120000};

/// BN-warmed conv ensemble written as a bundle — bodies are
/// Conv -> BN -> ReLU -> GAP, so the compiler has a real fold to do.
void write_conv_bundle(const std::string& dir, std::size_t num_bodies,
                       const core::Selector& selector) {
    harness::ConvEnsembleParts parts =
        harness::make_conv_ensemble(kSeed, num_bodies, selector.p());
    harness::warm_batchnorm(parts, kSeed + 7);
    harness::set_eval(parts);
    harness::save_generation(dir, parts, parts, selector);
}

std::vector<Tensor> make_conv_inputs(std::uint64_t data_seed) {
    Rng rng(data_seed);
    return {Tensor::randn(Shape{2, 1, harness::kConvImage, harness::kConvImage}, rng),
            Tensor::randn(Shape{1, 1, harness::kConvImage, harness::kConvImage}, rng),
            Tensor::randn(Shape{3, 1, harness::kConvImage, harness::kConvImage}, rng)};
}

float wire_tolerance(split::WireFormat wire) {
    return wire == split::WireFormat::f32 ? kF32Tolerance : kQ8Tolerance;
}

void expect_near(const Tensor& a, const Tensor& b, float tolerance, const char* what) {
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(a.at(i), b.at(i), tolerance) << what << " at flat index " << i;
    }
}

TEST(OptimizedBoot, ServiceFromBundleMatchesUnoptimizedPerWireFormat) {
    const std::string dir = bundle_dir_for("optimize_service");
    const core::Selector selector(3, {0, 2});
    write_conv_bundle(dir, /*num_bodies=*/3, selector);

    ServeConfig optimized_config;
    optimized_config.optimize = true;
    const std::vector<Tensor> inputs = make_conv_inputs(41);

    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        InferenceService plain = InferenceService::from_bundle(dir);
        InferenceService optimized = InferenceService::from_bundle(dir, optimized_config);
        auto plain_session = plain.create_session(SessionOptions{wire, {}});
        auto optimized_session = optimized.create_session(SessionOptions{wire, {}});

        bool any_bit_difference = false;
        for (const Tensor& input : inputs) {
            const Tensor expected = plain_session->infer(input).logits;
            const Tensor actual = optimized_session->infer(input).logits;
            expect_near(actual, expected, wire_tolerance(wire),
                        split::wire_format_name(wire));
            any_bit_difference |= actual.to_vector() != expected.to_vector();
        }
        if (wire == split::WireFormat::f32) {
            // BN folding re-associates floats: bit-identical logits on a
            // warmed-BN deployment would mean the compiler silently did
            // nothing and this parity test proves nothing.
            EXPECT_TRUE(any_bit_difference)
                << "optimized f32 logits are bit-identical — was the graph compiled at all?";
        }
    }
}

TEST(OptimizedBoot, OptimizedDaemonMatchesUnoptimizedDaemon) {
    const std::string dir = bundle_dir_for("optimize_daemon");
    const core::Selector selector(3, {1, 2});
    write_conv_bundle(dir, /*num_bodies=*/3, selector);

    // Client half off disk, then the secret file goes away before either
    // daemon starts — the optimize flag changes nothing about what a body
    // host may read.
    ClientArtifacts client = load_bundle_client(dir, 3);
    ASSERT_NE(client.noise, nullptr);
    ASSERT_TRUE(fs::remove(fs::path(dir) / kClientFileName));

    const auto plain_daemon = harness::exec_daemon(dir);
    const auto optimized_daemon = harness::exec_daemon(dir, {"--optimize"});
    const std::uint16_t plain_port = plain_daemon->wait_for_port(harness::kDaemonBoot);
    const std::uint16_t optimized_port = optimized_daemon->wait_for_port(harness::kDaemonBoot);

    const std::vector<Tensor> inputs = make_conv_inputs(42);
    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        RemoteSession plain_session(split::tcp_connect("127.0.0.1", plain_port), *client.head,
                                    client.noise.get(), *client.tail, client.selector, wire,
                                    std::chrono::seconds(30), /*max_inflight=*/4);
        RemoteSession optimized_session(split::tcp_connect("127.0.0.1", optimized_port),
                                        *client.head, client.noise.get(), *client.tail,
                                        client.selector, wire, std::chrono::seconds(30),
                                        /*max_inflight=*/4);
        plain_session.set_recv_timeout(kRequestTimeout);
        optimized_session.set_recv_timeout(kRequestTimeout);
        ASSERT_EQ(optimized_session.body_count(), 3u);

        for (std::size_t r = 0; r < inputs.size(); ++r) {
            const Tensor expected = plain_session.infer(inputs[r]).logits;
            const Tensor actual = optimized_session.infer(inputs[r]).logits;
            expect_near(actual, expected, wire_tolerance(wire), split::wire_format_name(wire));
        }
        plain_session.close();
        optimized_session.close();
    }
    EXPECT_EQ(plain_daemon->stop(), 0);
    EXPECT_EQ(optimized_daemon->stop(), 0);
}

TEST(OptimizedBoot, OptimizedServiceRefusesSaveBundleTyped) {
    const std::string dir = bundle_dir_for("optimize_no_resave");
    const core::Selector selector(2, {0});
    write_conv_bundle(dir, /*num_bodies=*/2, selector);

    ServeConfig config;
    config.optimize = true;
    InferenceService service = InferenceService::from_bundle(dir, config);
    try {
        service.save_bundle(bundle_dir_for("optimize_no_resave_out"));
        FAIL() << "expected ens::Error{compile_error}";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::compile_error) << e.what();
    }

    // The unoptimized boot of the same bundle still exports fine.
    InferenceService plain = InferenceService::from_bundle(dir);
    EXPECT_NO_THROW(plain.save_bundle(bundle_dir_for("optimize_plain_resave")));
}

TEST(OptimizedBoot, UnfoldableBundleDegradesToBitExactIdentity) {
    // Linear-only bodies: no BN to fold, no activation to fuse, no mask to
    // bake. optimize must be a no-op with BIT-identical outputs — the
    // hostile-spec degradation contract.
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, 2, /*num_selected=*/1);
    harness::set_eval(parts);
    const core::Selector selector(2, {1});

    const std::string dir = bundle_dir_for("optimize_identity");
    harness::save_generation(dir, parts, parts, selector);

    ServeConfig config;
    config.optimize = true;
    InferenceService plain = InferenceService::from_bundle(dir);
    InferenceService optimized = InferenceService::from_bundle(dir, config);
    auto plain_session = plain.create_session();
    auto optimized_session = optimized.create_session();

    Rng rng(kSeed + 9);
    for (int r = 0; r < 4; ++r) {
        const Tensor input = Tensor::randn(Shape{2, harness::kIn}, rng);
        EXPECT_EQ(optimized_session->infer(input).logits.to_vector(),
                  plain_session->infer(input).logits.to_vector())
            << "identity compile must be bit-exact, request " << r;
    }
}

TEST(OptimizedBoot, BodyHostStructurallyRewritesConvBnReluBodies) {
    const std::string dir = bundle_dir_for("optimize_structure");
    const core::Selector selector(2, {0});
    write_conv_bundle(dir, /*num_bodies=*/2, selector);

    const auto plain = BodyHost::from_bundle(dir);
    const auto optimized =
        BodyHost::from_bundle(dir, 0, static_cast<std::size_t>(-1), /*optimize=*/true);

    // Unoptimized: Conv -> BN -> ReLU -> GAP. Optimized: the Conv folded
    // its BN (gaining a bias) and fused the ReLU, leaving Conv -> GAP.
    const auto& before = dynamic_cast<const nn::Sequential&>(plain->body(0));
    EXPECT_EQ(before.size(), 4u);
    const auto& after = dynamic_cast<const nn::Sequential&>(optimized->body(0));
    ASSERT_EQ(after.size(), 2u);
    const auto* conv = dynamic_cast<const nn::Conv2d*>(&after.layer(0));
    ASSERT_NE(conv, nullptr);
    EXPECT_TRUE(conv->has_bias());
    EXPECT_EQ(conv->epilogue(), nn::Epilogue::relu);
    EXPECT_TRUE(conv->weights_packed()) << "repack pass must rebuild the GEMM cache eagerly";
}

}  // namespace
}  // namespace ens::serve
