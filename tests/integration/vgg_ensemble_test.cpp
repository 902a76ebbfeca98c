// Integration: the split/selector/attack machinery is backbone-agnostic.
//
// The paper describes Ensembler on ResNet-18, but nothing in Eq. 1-3
// depends on residual bodies. This suite wires a P-of-N selective ensemble
// out of VGG split models by hand — head, N plain-CNN bodies, selector,
// tail — and serves it sharded over loopback sockets bit-identically to
// the in-proc session, proving every piece composes without the
// ResNet-specific helpers.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "../serve/serve_harness.hpp"
#include "core/selector.hpp"
#include "data/synth_cifar10.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/vgg.hpp"
#include "serve/shard_router.hpp"
#include "split/channel.hpp"
#include "split/multiparty.hpp"
#include "split/session.hpp"
#include "split/split_model.hpp"
#include "split/tcp_channel.hpp"

namespace ens {
namespace {

struct VggEnsemble {
    nn::VggConfig config;
    std::unique_ptr<nn::Sequential> head;
    std::vector<std::unique_ptr<nn::Sequential>> bodies;
    std::unique_ptr<nn::Sequential> tail;
    std::vector<nn::Layer*> body_views;

    explicit VggEnsemble(std::size_t n, std::size_t p) {
        config.base_width = 4;
        config.image_size = 8;
        config.num_classes = 10;
        config.stages = 2;

        Rng rng(41);
        // Head + tail carved from one VGG; bodies from N more.
        split::SplitModel first =
            split::split_sequential(nn::build_vgg(config, rng), nn::vgg_head_layer_count(config),
                                    /*tail_layers=*/1);
        head = std::move(first.head);
        bodies.push_back(std::move(first.body));
        for (std::size_t i = 1; i < n; ++i) {
            split::SplitModel extra = split::split_sequential(
                nn::build_vgg(config, rng), nn::vgg_head_layer_count(config), 1);
            bodies.push_back(std::move(extra.body));
        }
        // Fresh tail sized for the P-concat of body features.
        tail = std::make_unique<nn::Sequential>();
        tail->emplace<nn::Linear>(static_cast<std::int64_t>(p) * nn::vgg_feature_width(config),
                                  config.num_classes, rng);
        for (auto& body : bodies) {
            body->set_training(false);
            body_views.push_back(body.get());
        }
        head->set_training(false);
        tail->set_training(false);
    }
};

TEST(VggEnsembleIntegration, SelectorConcatFeedsTheTail) {
    VggEnsemble ensemble(4, 2);
    const core::Selector selector(4, {1, 3});
    Rng rng(1);
    const Tensor x = Tensor::randn(Shape{3, 3, 8, 8}, rng);

    const Tensor wire = ensemble.head->forward(x);
    std::vector<Tensor> features;
    for (auto& body : ensemble.bodies) {
        features.push_back(body->forward(wire));
    }
    const Tensor combined = selector.apply(features);
    EXPECT_EQ(combined.shape(),
              (Shape{3, 2 * nn::vgg_feature_width(ensemble.config)}));
    const Tensor logits = ensemble.tail->forward(combined);
    EXPECT_EQ(logits.shape(), (Shape{3, 10}));
}

TEST(VggEnsembleIntegration, ShardedVggBodiesMatchInProcOracle) {
    // blocks(4, 2): S0 = {0, 1}, S1 = {2, 3}; the selection {0, 2} needs
    // both shards. Each shard is an in-thread reactor on loopback serving
    // its slice of the same body layers the oracle runs, so the loop below
    // never runs the router and the oracle at the same time.
    VggEnsemble ensemble(4, 2);
    const core::Selector selector(4, {0, 2});
    const auto hosts =
        serve::harness::serve_shard_plan(ensemble.body_views, split::ShardPlan::blocks(4, 2));
    std::vector<std::unique_ptr<split::Channel>> channels;
    for (const auto& host : hosts) {
        channels.push_back(split::tcp_connect("127.0.0.1", host->port()));
    }
    serve::ShardRouter router(std::move(channels), *ensemble.head, nullptr, *ensemble.tail,
                              selector, split::WireFormat::q16);
    router.set_recv_timeout(std::chrono::seconds(120));

    split::InProcChannel uplink;
    split::InProcChannel downlink;
    split::CollaborativeSession oracle(
        *ensemble.head, ensemble.body_views, *ensemble.tail,
        [&selector](const std::vector<Tensor>& features) { return selector.apply(features); },
        uplink, downlink, split::WireFormat::q16);

    Rng rng(2);
    for (const std::int64_t batch : {2, 1}) {
        const Tensor x = Tensor::randn(Shape{batch, 3, 8, 8}, rng);
        const Tensor routed = router.infer(x).logits;
        const Tensor expected = oracle.infer(x);
        ASSERT_EQ(routed.shape(), (Shape{batch, 10}));
        // to_vector equality is bitwise for float payloads.
        EXPECT_EQ(routed.to_vector(), expected.to_vector()) << "batch " << batch;
    }
    router.close();
}

TEST(VggEnsembleIntegration, GradientsFlowThroughSelectedVggBodies) {
    // One training step of head+tail against frozen VGG bodies through the
    // selector — the stage-3 wiring, on the alternate backbone.
    VggEnsemble ensemble(3, 2);
    const core::Selector selector(3, {0, 2});
    ensemble.head->set_training(true);
    ensemble.tail->set_training(true);
    for (auto& body : ensemble.bodies) {
        nn::set_requires_grad(*body, false);
        body->set_training(false);
    }

    Rng rng(3);
    const Tensor x = Tensor::uniform(Shape{4, 3, 8, 8}, rng);
    const std::vector<std::int64_t> labels = {0, 1, 2, 3};

    const auto forward = [&] {
        const Tensor wire = ensemble.head->forward(x);
        std::vector<Tensor> selected;
        for (const std::size_t i : selector.indices()) {
            selected.push_back(ensemble.bodies[i]->forward(wire));
        }
        return ensemble.tail->forward(selector.combine_selected(selected));
    };

    const nn::LossResult before = nn::softmax_cross_entropy(forward(), labels);
    const Tensor d_combined = ensemble.tail->backward(before.grad);
    const std::vector<Tensor> d_selected = selector.split_gradient(d_combined);
    Tensor d_wire;
    std::size_t k = 0;
    for (const std::size_t i : selector.indices()) {
        Tensor d_in = ensemble.bodies[i]->backward(d_selected[k++]);
        if (d_wire.defined()) {
            d_wire.add_(d_in);
        } else {
            d_wire = std::move(d_in);
        }
    }
    ensemble.head->backward(d_wire);

    bool any_head_grad = false;
    for (nn::Parameter* param : ensemble.head->parameters()) {
        for (const float g : param->grad.to_vector()) {
            any_head_grad = any_head_grad || g != 0.0f;
        }
        param->value.axpy_(-0.05f, param->grad);
        param->zero_grad();
    }
    EXPECT_TRUE(any_head_grad);
    for (nn::Parameter* param : ensemble.tail->parameters()) {
        param->value.axpy_(-0.05f, param->grad);
        param->zero_grad();
    }
    const nn::LossResult after = nn::softmax_cross_entropy(forward(), labels);
    EXPECT_LT(after.value, before.value);
}

}  // namespace
}  // namespace ens
