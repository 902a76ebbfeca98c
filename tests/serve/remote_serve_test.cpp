// End-to-end proof that remote serving over TcpChannel is BIT-IDENTICAL
// to the in-proc sequential oracle: exec'd serve_daemon processes host the
// server bodies of an on-disk bundle behind real listeners, this process
// drives a RemoteSession across the process boundary, and every logit must
// match the CollaborativeSession round trip exactly — for lossless and
// quantized wire formats, for standard CI (N = 1) and for an N = 3
// ensemble whose secret selector never leaves the client.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "daemon_harness.hpp"
#include "serve/bundle.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"
#include "split/split_model.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::size_t kEnsembleBodies = 3;
constexpr std::uint64_t kSplitSeed = 17;
constexpr std::uint64_t kEnsembleSeed = 700;

// Generous per-request cap so a wedged child fails the test instead of
// hanging CI (the constructor's own handshake timeout covers connection
// setup).
constexpr std::chrono::milliseconds kRequestTimeout{120000};

TEST(RemoteServe, DaemonIsBitIdenticalToInProcOracle) {
    // Two deployments on disk, one daemon each: the single-body split
    // (served over two connections, f32 then q8) and the ensemble.
    const std::string single_dir = harness::bundle_dir_for("remote_single");
    {
        split::SplitModel model = harness::make_linear_split(kSplitSeed);
        model.set_training(false);
        const core::Selector only_body(1, {0});
        BundleArtifacts artifacts;
        artifacts.bodies = {model.body.get()};
        artifacts.head = model.head.get();
        artifacts.tail = model.tail.get();
        artifacts.selector = &only_body;
        save_bundle(single_dir, artifacts);
    }
    const std::string ensemble_dir = harness::bundle_dir_for("remote_ensemble");
    {
        harness::EnsembleParts parts =
            harness::make_linear_ensemble(kEnsembleSeed, kEnsembleBodies, /*num_selected=*/2);
        harness::set_eval(parts);
        harness::save_generation(ensemble_dir, parts, parts,
                                 core::Selector(kEnsembleBodies, {0, 2}));
    }
    const auto single_daemon = harness::exec_daemon(single_dir);
    const auto ensemble_daemon = harness::exec_daemon(ensemble_dir);
    const std::uint16_t single_port = single_daemon->wait_for_port(harness::kDaemonBoot);
    const std::uint16_t ensemble_port = ensemble_daemon->wait_for_port(harness::kDaemonBoot);

    // Shared inputs: both the oracle and the remote path see these exact
    // tensors.
    Rng data_rng(23);
    const std::vector<Tensor> inputs = {Tensor::randn(Shape{2, harness::kIn}, data_rng),
                                        Tensor::randn(Shape{1, harness::kIn}, data_rng),
                                        Tensor::randn(Shape{3, harness::kIn}, data_rng)};

    // --- connections 1+2: standard CI (N = 1), lossless then quantized ---
    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        split::SplitModel oracle_model = harness::make_linear_split(kSplitSeed);
        oracle_model.set_training(false);
        split::InProcChannel uplink;
        split::InProcChannel downlink;
        split::CollaborativeSession oracle(*oracle_model.head, {oracle_model.body.get()},
                                           *oracle_model.tail, split::single_body_combiner(),
                                           uplink, downlink, wire);

        split::SplitModel client_model = harness::make_linear_split(kSplitSeed);
        client_model.set_training(false);
        RemoteSession session(split::tcp_connect("127.0.0.1", single_port),
                              *client_model.head, nullptr, *client_model.tail,
                              core::Selector(1, {0}), wire);
        session.set_recv_timeout(kRequestTimeout);
        ASSERT_EQ(session.body_count(), 1u);

        for (std::size_t r = 0; r < inputs.size(); ++r) {
            const InferenceResult result = session.infer(inputs[r]);
            const Tensor expected = oracle.infer(inputs[r]);
            ASSERT_EQ(result.logits.shape(), expected.shape());
            // to_vector equality is bitwise for float payloads.
            EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
                << split::wire_format_name(wire) << " request " << r;
        }
        // Uplink byte parity with the sequential oracle (each endpoint
        // bills what it sends; the downlink is billed daemon-side).
        EXPECT_EQ(session.traffic_stats().messages, oracle.uplink_stats().messages);
        EXPECT_EQ(session.traffic_stats().bytes, oracle.uplink_stats().bytes);
        EXPECT_EQ(session.stats().requests(), inputs.size());
        session.close();
    }

    // --- connection 3: N = 3 ensemble, secret P = 2 selector client-side ---
    {
        harness::EnsembleParts oracle_parts =
            harness::make_linear_ensemble(kEnsembleSeed, kEnsembleBodies, /*num_selected=*/2);
        harness::set_eval(oracle_parts);
        const core::Selector selector(kEnsembleBodies, {0, 2});
        std::vector<nn::Layer*> oracle_bodies;
        for (nn::LayerPtr& body : oracle_parts.bodies) {
            oracle_bodies.push_back(body.get());
        }
        split::InProcChannel uplink;
        split::InProcChannel downlink;
        split::CollaborativeSession oracle(
            *oracle_parts.head, oracle_bodies, *oracle_parts.tail,
            [&selector](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink, downlink, split::WireFormat::f32);

        harness::EnsembleParts client_parts =
            harness::make_linear_ensemble(kEnsembleSeed, kEnsembleBodies, /*num_selected=*/2);
        harness::set_eval(client_parts);
        RemoteSession session(split::tcp_connect("127.0.0.1", ensemble_port),
                              *client_parts.head, nullptr, *client_parts.tail, selector,
                              split::WireFormat::f32);
        session.set_recv_timeout(kRequestTimeout);
        ASSERT_EQ(session.body_count(), kEnsembleBodies);

        for (std::size_t r = 0; r < inputs.size(); ++r) {
            const InferenceResult result = session.infer(inputs[r]);
            const Tensor expected = oracle.infer(inputs[r]);
            ASSERT_EQ(result.logits.shape(), expected.shape());
            EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
                << "ensemble request " << r;
        }
        session.close();
    }

    EXPECT_EQ(single_daemon->stop(), 0) << "single-body daemon did not exit cleanly";
    EXPECT_EQ(ensemble_daemon->stop(), 0) << "ensemble daemon did not exit cleanly";
}

}  // namespace
}  // namespace ens::serve
