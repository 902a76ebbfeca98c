#include "nn/sequential.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/resnet.hpp"
#include "tensor/ops.hpp"

namespace ens::nn {
namespace {

std::unique_ptr<Sequential> make_net(Rng& rng) {
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(1, 2, 3, 1, 1, rng);
    net->emplace<ReLU>();
    net->emplace<GlobalAvgPool>();
    net->emplace<Linear>(2, 3, rng);
    return net;
}

TEST(Sequential, ForwardChainsLayers) {
    Rng rng(1);
    auto net = make_net(rng);
    const Tensor y = net->forward(Tensor::ones(Shape{2, 1, 4, 4}));
    EXPECT_EQ(y.shape(), Shape({2, 3}));
}

TEST(Sequential, BackwardReturnsInputGradient) {
    Rng rng(2);
    auto net = make_net(rng);
    const Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, rng);
    const Tensor y = net->forward(x);
    const Tensor dx = net->backward(Tensor::ones(y.shape()));
    EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Sequential, ParametersAggregate) {
    Rng rng(3);
    auto net = make_net(rng);
    // conv weight + linear weight + linear bias
    EXPECT_EQ(net->parameters().size(), 3u);
    EXPECT_GT(parameter_count(*net), 0);
}

TEST(Sequential, SetTrainingPropagates) {
    Rng rng(4);
    auto net = make_net(rng);
    net->set_training(false);
    for (std::size_t i = 0; i < net->size(); ++i) {
        EXPECT_FALSE(net->layer(i).training());
    }
    net->set_training(true);
    EXPECT_TRUE(net->layer(0).training());
}

TEST(Sequential, PushBackSetsTrainingMode) {
    Sequential net;
    net.set_training(false);
    Rng rng(5);
    net.emplace<Conv2d>(1, 1, 3, 1, 1, rng);
    EXPECT_FALSE(net.layer(0).training());
}

TEST(Sequential, ReleaseSlicePartitions) {
    Rng rng(5);
    auto net = make_net(rng);
    auto head = net->release_slice(0, 2);
    EXPECT_EQ(head.size(), 2u);
    EXPECT_EQ(net->size(), 2u);
    EXPECT_EQ(net->layer(0).name(), "GlobalAvgPool");
}

TEST(Sequential, ReleaseSliceBoundsChecked) {
    Rng rng(6);
    auto net = make_net(rng);
    EXPECT_THROW(net->release_slice(3, 2), std::invalid_argument);
    EXPECT_THROW(net->release_slice(0, 9), std::invalid_argument);
}

TEST(Sequential, RejectsNullLayer) {
    Sequential net;
    EXPECT_THROW(net.push_back(nullptr), std::invalid_argument);
}

TEST(Sequential, NameListsLayers) {
    Rng rng(7);
    auto net = make_net(rng);
    const std::string name = net->name();
    EXPECT_NE(name.find("Conv2d"), std::string::npos);
    EXPECT_NE(name.find("Linear"), std::string::npos);
}

TEST(CopyParameters, TransfersWeights) {
    Rng rng_a(8);
    Rng rng_b(9);
    auto a = make_net(rng_a);
    auto b = make_net(rng_b);
    const Tensor x = Tensor::randn(Shape{1, 1, 4, 4}, rng_a);
    EXPECT_NE(a->forward(x).to_vector(), b->forward(x).to_vector());
    copy_parameters(*a, *b);
    EXPECT_EQ(a->forward(x).to_vector(), b->forward(x).to_vector());
}

TEST(Checkpoint, FileRoundTrip) {
    Rng rng_a(10);
    Rng rng_b(11);
    auto a = make_net(rng_a);
    auto b = make_net(rng_b);
    const std::string path = ::testing::TempDir() + "/ens_ckpt_test.bin";
    save_state_file(*a, path);
    load_state_file(*b, path);
    const Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, rng_a);
    EXPECT_EQ(a->forward(x).to_vector(), b->forward(x).to_vector());
    std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMismatchedStructure) {
    Rng rng(12);
    auto a = make_net(rng);
    Sequential different;
    different.emplace<Linear>(2, 2, rng);
    const std::string path = ::testing::TempDir() + "/ens_ckpt_bad.bin";
    save_state_file(*a, path);
    EXPECT_THROW(load_state_file(different, path), std::runtime_error);
    std::remove(path.c_str());
}

}  // namespace
TEST(Sequential, InsertSplicesAtPosition) {
    Rng rng(50);
    Sequential net;
    net.emplace<Linear>(3, 4, rng);
    net.emplace<Linear>(4, 2, rng);
    net.insert(1, std::make_unique<ReLU>());
    ASSERT_EQ(net.size(), 3u);
    EXPECT_EQ(net.layer(1).name(), "ReLU");
    // Still a working pipeline.
    EXPECT_EQ(net.forward(Tensor::zeros(Shape{2, 3})).shape(), (Shape{2, 2}));
    // Index == size() appends; out-of-range throws.
    net.insert(net.size(), std::make_unique<ReLU>());
    EXPECT_EQ(net.layer(3).name(), "ReLU");
    EXPECT_THROW(net.insert(99, std::make_unique<ReLU>()), std::invalid_argument);
    EXPECT_THROW(net.insert(0, nullptr), std::invalid_argument);
}

TEST(Sequential, InsertAdoptsTrainingMode) {
    Rng rng(51);
    Sequential net;
    net.emplace<Linear>(2, 2, rng);
    net.set_training(true);
    Layer& inserted = net.insert(0, std::make_unique<ReLU>());
    EXPECT_TRUE(inserted.training());
}


TEST(Checkpoint, StateRoundTripCarriesBatchNormStatistics) {
    Rng rng(60);
    Sequential net;
    net.emplace<Conv2d>(3, 4, 3, 1, 1, rng);
    net.emplace<BatchNorm2d>(4);
    net.emplace<ReLU>();

    // Drive training mode so the BN running stats move off their init.
    net.set_training(true);
    for (int step = 0; step < 4; ++step) {
        (void)net.forward(Tensor::randn(Shape{4, 3, 6, 6}, rng, 0.5f, 2.0f));
    }
    net.set_training(false);
    const Tensor probe = Tensor::randn(Shape{2, 3, 6, 6}, rng);
    const auto expected = net.forward(probe).to_vector();

    std::stringstream stream;
    save_state(net, stream);

    // A fresh net (different init, virgin BN stats) restores the state.
    Rng other(61);
    Sequential restored;
    restored.emplace<Conv2d>(3, 4, 3, 1, 1, other);
    restored.emplace<BatchNorm2d>(4);
    restored.emplace<ReLU>();
    restored.set_training(false);
    load_state(restored, stream);
    const auto actual = restored.forward(probe).to_vector();
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_FLOAT_EQ(expected[i], actual[i]) << "element " << i;
    }
}

TEST(Checkpoint, BuffersTraversalMatchesBatchNormCount) {
    Rng rng(63);
    nn::ResNetConfig arch;
    arch.base_width = 4;
    arch.image_size = 16;
    arch.num_classes = 10;
    auto net = build_resnet18(arch, rng);
    // Head BN + 8 blocks x (2 BN + 3 projection BNs across stages 2-4).
    // Count instead structurally: every BN contributes exactly 2 buffers.
    std::size_t bn_params = 0;
    for (nn::Parameter* p : net->parameters()) {
        if (p->name.find("gamma") != std::string::npos) {
            ++bn_params;
        }
    }
    EXPECT_EQ(net->buffers().size(), 2 * bn_params);
}

}  // namespace ens::nn
