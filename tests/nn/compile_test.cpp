// Graph-compiler contract (nn/compile.hpp): every pass preserves
// eval-mode outputs (bit-exact where the rewrite keeps the arithmetic,
// tolerance-class where folding re-associates floats), a graph with no
// foldable pattern comes back functionally identical, and compiled
// layers refuse the things a runtime artifact must refuse (backward,
// re-entering training, spec export).

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/arch.hpp"
#include "nn/batchnorm.hpp"
#include "nn/checkpoint.hpp"
#include "nn/compile.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/noise.hpp"
#include "nn/resblock.hpp"
#include "nn/sequential.hpp"

namespace ens::nn {
namespace {

// Folding BN stats into weights re-associates float products; the moved
// bits stay far below this across the tiny shapes used here.
constexpr float kFoldTolerance = 1e-5f;

void expect_near(const Tensor& a, const Tensor& b, float tolerance) {
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(a.at(i), b.at(i), tolerance) << "at flat index " << i;
    }
}

void expect_bitwise(const Tensor& a, const Tensor& b) {
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_EQ(a.at(i), b.at(i)) << "at flat index " << i;
    }
}

/// Runs a few training batches so BatchNorm running stats diverge from
/// their init (otherwise folding would be trivially correct), then eval.
void warm(Layer& net, const Shape& input_shape, std::uint64_t seed) {
    Rng rng(seed);
    net.set_training(true);
    for (int batch = 0; batch < 3; ++batch) {
        net.forward(Tensor::randn(input_shape, rng));
    }
    net.set_training(false);
}

/// Duplicates `source` into `target` (same architecture required):
/// parameters AND buffers, so warmed BN running stats carry over —
/// copy_parameters alone would not.
void duplicate_state(Layer& source, Layer& target) {
    std::stringstream stream;
    save_state(source, stream);
    load_state(target, stream);
}

std::unique_ptr<Sequential> make_conv_bn_relu(std::uint64_t seed) {
    Rng rng(seed);
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(2, 3, 3, 1, 1, rng);
    net->emplace<BatchNorm2d>(3);
    net->emplace<ReLU>();
    return net;
}

TEST(CompileFoldBatchNorm, MatchesWarmedEvalReferenceWithinTolerance) {
    auto reference = make_conv_bn_relu(11);
    warm(*reference, Shape{2, 2, 6, 6}, 101);

    auto subject = make_conv_bn_relu(11);
    duplicate_state(*reference, *subject);
    subject->set_training(false);

    CompileReport report;
    LayerPtr compiled = compile_for_inference(std::move(subject), &report);

    // Conv+BN folded into one biased conv, ReLU fused into its epilogue.
    const auto* seq = dynamic_cast<const Sequential*>(compiled.get());
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(seq->size(), 1u);
    const auto* conv = dynamic_cast<const Conv2d*>(&seq->layer(0));
    ASSERT_NE(conv, nullptr);
    EXPECT_TRUE(conv->has_bias());
    EXPECT_EQ(conv->epilogue(), Epilogue::relu);
    EXPECT_TRUE(report.changed());

    Rng data(202);
    for (int trial = 0; trial < 3; ++trial) {
        const Tensor x = Tensor::randn(Shape{2, 2, 6, 6}, data);
        expect_near(compiled->forward(x), reference->forward(x), kFoldTolerance);
    }
}

TEST(CompileFuseActivations, IsBitExactAndDropsActivationLayers) {
    auto build = [] {
        Rng rng(21);
        auto net = std::make_unique<Sequential>();
        net->emplace<Linear>(5, 7, rng);
        net->emplace<ReLU>();
        net->emplace<Linear>(7, 4, rng);
        net->emplace<LeakyReLU>(0.2f);
        net->set_training(false);
        return net;
    };
    auto reference = build();
    CompileReport report;
    LayerPtr compiled = compile_for_inference(build(), &report);

    const auto* seq = dynamic_cast<const Sequential*>(compiled.get());
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(seq->size(), 2u);
    EXPECT_EQ(dynamic_cast<const Linear&>(seq->layer(0)).epilogue(), Epilogue::relu);
    EXPECT_EQ(dynamic_cast<const Linear&>(seq->layer(1)).epilogue(), Epilogue::leaky_relu);

    // Fusion keeps the exact scalar expression of the standalone layers:
    // outputs are bit-identical, including negative pre-activations
    // through the leaky slope.
    Rng data(303);
    for (int trial = 0; trial < 3; ++trial) {
        const Tensor x = Tensor::randn(Shape{3, 5}, data);
        expect_bitwise(compiled->forward(x), reference->forward(x));
    }
}

TEST(CompileBakeNoise, PreLinearMaskFoldsIntoBias) {
    auto build = [] {
        Rng rng(31);
        auto net = std::make_unique<Sequential>();
        net->emplace<FixedNoise>(Shape{6}, 0.5f, rng, /*trainable=*/false);
        net->emplace<Linear>(6, 3, rng);
        net->set_training(false);
        return net;
    };
    auto reference = build();
    CompileReport report;
    LayerPtr compiled = compile_for_inference(build(), &report);

    const auto* seq = dynamic_cast<const Sequential*>(compiled.get());
    ASSERT_NE(seq, nullptr);
    ASSERT_EQ(seq->size(), 1u);  // the noise layer is gone
    EXPECT_NE(dynamic_cast<const Linear*>(&seq->layer(0)), nullptr);

    Rng data(404);
    const Tensor x = Tensor::randn(Shape{4, 6}, data);
    // y = W(x + m) + b re-associates into Wx + (b + Wm): tolerance-class.
    expect_near(compiled->forward(x), reference->forward(x), kFoldTolerance);
}

TEST(CompileBakeNoise, PostLinearBakesThenActivationFuses) {
    // [Linear, FixedNoise, ReLU]: the bake runs BEFORE fusion, so the mask
    // folds into the bias first and the ReLU then fuses into the SAME
    // Linear — order matters, relu(x) + m != relu(x + m).
    auto build = [] {
        Rng rng(41);
        auto net = std::make_unique<Sequential>();
        net->emplace<Linear>(4, 5, rng);
        net->emplace<FixedNoise>(Shape{5}, 0.5f, rng, /*trainable=*/false);
        net->emplace<ReLU>();
        net->set_training(false);
        return net;
    };
    auto reference = build();
    LayerPtr compiled = compile_for_inference(build());

    const auto* seq = dynamic_cast<const Sequential*>(compiled.get());
    ASSERT_NE(seq, nullptr);
    ASSERT_EQ(seq->size(), 1u);
    const auto* linear = dynamic_cast<const Linear*>(&seq->layer(0));
    ASSERT_NE(linear, nullptr);
    EXPECT_EQ(linear->epilogue(), Epilogue::relu);

    Rng data(505);
    const Tensor x = Tensor::randn(Shape{2, 4}, data);
    expect_near(compiled->forward(x), reference->forward(x), kFoldTolerance);
}

TEST(CompileBakeNoise, TrainableAndNonAdjacentMasksStay) {
    auto build = [] {
        Rng rng(51);
        auto net = std::make_unique<Sequential>();
        // ReLU between Linear and mask: relu(x) + m has no bias-fold.
        net->emplace<Linear>(4, 4, rng);
        net->emplace<ReLU>();
        net->emplace<FixedNoise>(Shape{4}, 0.5f, rng, /*trainable=*/false);
        net->set_training(false);
        return net;
    };
    // Default mode: degrade to identity on the unbakeable mask (the ReLU
    // still fuses; the FixedNoise survives).
    {
        auto reference = build();
        LayerPtr compiled = compile_for_inference(build());
        const auto* seq = dynamic_cast<const Sequential*>(compiled.get());
        ASSERT_NE(seq, nullptr);
        ASSERT_EQ(seq->size(), 2u);
        EXPECT_NE(dynamic_cast<const FixedNoise*>(&seq->layer(1)), nullptr);
        Rng data(606);
        const Tensor x = Tensor::randn(Shape{2, 4}, data);
        expect_bitwise(compiled->forward(x), reference->forward(x));
    }
    // Trainable masks are never baked even when adjacent to a Linear.
    {
        Rng rng(52);
        auto net = std::make_unique<Sequential>();
        net->emplace<FixedNoise>(Shape{4}, 0.5f, rng, /*trainable=*/true);
        net->emplace<Linear>(4, 2, rng);
        net->set_training(false);
        CompileReport report;
        LayerPtr compiled = compile_for_inference(std::move(net), &report);
        const auto* seq = dynamic_cast<const Sequential*>(compiled.get());
        ASSERT_NE(seq, nullptr);
        EXPECT_EQ(seq->size(), 2u);
    }
}

TEST(CompileIdentity, UnfoldableGraphComesBackBitExactAndUnchanged) {
    auto build = [] {
        Rng rng(61);
        auto net = std::make_unique<Sequential>();
        net->emplace<Linear>(6, 6, rng);
        net->emplace<Linear>(6, 3, rng);
        net->set_training(false);
        return net;
    };
    auto reference = build();
    CompileReport report;
    LayerPtr compiled = compile_for_inference(build(), &report);

    EXPECT_FALSE(report.changed());
    const auto* seq = dynamic_cast<const Sequential*>(compiled.get());
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(seq->size(), 2u);

    Rng data(707);
    const Tensor x = Tensor::randn(Shape{3, 6}, data);
    expect_bitwise(compiled->forward(x), reference->forward(x));
}

TEST(CompileResidual, BasicBlockParityWithAndWithoutProjection) {
    struct Case {
        std::int64_t in, out, stride;
    };
    for (const Case& c : {Case{3, 3, 1}, Case{3, 6, 2}}) {
        Rng rng(71);
        auto reference = std::make_unique<BasicBlock>(c.in, c.out, c.stride, rng);
        warm(*reference, Shape{2, c.in, 8, 8}, 808);

        Rng rng2(71);
        LayerPtr subject = std::make_unique<BasicBlock>(c.in, c.out, c.stride, rng2);
        duplicate_state(*reference, *subject);
        subject->set_training(false);

        CompileReport report;
        LayerPtr compiled = compile_for_inference(std::move(subject), &report);
        const auto* residual = dynamic_cast<const CompiledResidual*>(compiled.get());
        ASSERT_NE(residual, nullptr);
        EXPECT_EQ(residual->has_projection(), c.stride != 1);
        EXPECT_EQ(residual->conv1().epilogue(), Epilogue::relu);
        EXPECT_TRUE(report.changed());

        Rng data(909);
        const Tensor x = Tensor::randn(Shape{2, c.in, 8, 8}, data);
        expect_near(compiled->forward(x), reference->forward(x), kFoldTolerance);
    }
}

TEST(CompileRefusals, CompiledLayersAreInferenceOnly) {
    Rng rng(81);
    auto net = std::make_unique<Sequential>();
    net->emplace<Linear>(4, 4, rng);
    net->emplace<ReLU>();
    net->set_training(false);
    LayerPtr compiled = compile_for_inference(std::move(net));
    auto& linear = dynamic_cast<Linear&>(dynamic_cast<Sequential&>(*compiled).layer(0));

    linear.forward(Tensor::randn(Shape{2, 4}, rng));
    EXPECT_THROW(linear.backward(Tensor::ones(Shape{2, 4})), std::runtime_error);
    // A fused layer has no spec representation — export must refuse, or a
    // bundle written from a compiled graph would rebuild without the fold.
    EXPECT_THROW(describe_layer(linear), std::invalid_argument);

    Rng rng2(82);
    LayerPtr block = std::make_unique<BasicBlock>(3, 3, 1, rng2);
    block->set_training(false);
    LayerPtr residual = compile_for_inference(std::move(block));
    EXPECT_THROW(residual->backward(Tensor::ones(Shape{1, 3, 4, 4})), std::runtime_error);
    EXPECT_THROW(residual->set_training(true), std::invalid_argument);
    residual->set_training(false);  // re-asserting eval is fine
}

TEST(CompileRepack, AssignParametersInvalidatesPackedCachesAndRepackRebuilds) {
    // Regression for the PR-7 invalidation hole: a pass that swaps weights
    // after prepare_inference() must not leave a stale packed GEMM cache
    // serving the OLD weights.
    Rng rng(91);
    Linear linear(5, 4, rng);
    linear.set_training(false);
    linear.prepare_inference();
    ASSERT_TRUE(linear.weights_packed());

    Rng rng2(92);
    Linear donor(5, 4, rng2);
    const Tensor new_bias = donor.bias().value.clone();
    linear.assign_parameters(donor.weight().value, &new_bias);
    EXPECT_FALSE(linear.weights_packed());  // cache invalidated, not stale

    const Tensor x = Tensor::randn(Shape{3, 5}, rng);
    donor.set_training(false);
    expect_bitwise(linear.forward(x), donor.forward(x));

    // compile_for_inference's repack pass rebuilds caches eagerly from the
    // REWRITTEN weights.
    auto net = std::make_unique<Sequential>();
    Rng rng3(93);
    net->emplace<Conv2d>(2, 3, 3, 1, 1, rng3);
    net->emplace<BatchNorm2d>(3);
    warm(*net, Shape{1, 2, 5, 5}, 111);
    LayerPtr compiled = compile_for_inference(std::move(net));
    const auto& conv =
        dynamic_cast<const Conv2d&>(dynamic_cast<const Sequential&>(*compiled).layer(0));
    EXPECT_TRUE(conv.weights_packed());
}

}  // namespace
}  // namespace ens::nn
