// Proof of the §III-D multiparty deployment: N = 6 bodies sharded 2/2/2
// across three in-thread reactor hosts, a ShardRouter fanning each request
// out over three real loopback TCP connections, and the merged logits
// BIT-IDENTICAL to the sequential in-proc CollaborativeSession oracle —
// for lossless f32 and quantized q8 wire — with the secret P-of-6
// selector never leaving the client. No single host ever holds more than
// 2 of the 6 bodies.
//
// The shard channels are handed to the router in scrambled order on
// purpose: the merge must be driven by the body ranges each shard declares
// in its handshake, not by construction order.
//
// A second case pins the client's thread inventory: one demux thread per
// link (requests are written on the submitting thread), plus the redialer
// for a router built from endpoints.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "serve/shard_router.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"
#include "split/tap_channel.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::size_t kBodies = 6;
constexpr std::size_t kShards = 3;
constexpr std::size_t kPerShard = kBodies / kShards;
constexpr std::size_t kSelected = 3;
constexpr std::uint64_t kSeed = 4100;
constexpr std::chrono::milliseconds kRequestTimeout{120000};

TEST(ShardRouter, ThreeShardDeploymentIsBitIdenticalToInProcOracle) {
    // Three in-thread reactors, each hosting only its own slice of the 6
    // bodies (a copy separate from the oracle's).
    harness::EnsembleParts host_parts = harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(host_parts);
    std::vector<nn::Layer*> host_bodies;
    for (nn::LayerPtr& body : host_parts.bodies) {
        host_bodies.push_back(body.get());
    }
    const auto hosts =
        harness::serve_shard_plan(host_bodies, split::ShardPlan::blocks(kBodies, kShards));

    // Selector spans all three shards, so no single shard ever holds the
    // full selection (the §III-D non-collusion argument).
    const core::Selector selector(kBodies, {0, 2, 5});

    Rng data_rng(31);
    const std::vector<Tensor> inputs = {Tensor::randn(Shape{2, harness::kIn}, data_rng),
                                        Tensor::randn(Shape{1, harness::kIn}, data_rng),
                                        Tensor::randn(Shape{3, harness::kIn}, data_rng)};

    std::vector<std::uint64_t> f32_shard_bytes;
    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        // In-proc sequential oracle over the SAME deployment.
        harness::EnsembleParts oracle_parts =
            harness::make_linear_ensemble(kSeed, kBodies, kSelected);
        harness::set_eval(oracle_parts);
        std::vector<nn::Layer*> oracle_bodies;
        for (nn::LayerPtr& body : oracle_parts.bodies) {
            oracle_bodies.push_back(body.get());
        }
        split::InProcChannel uplink;
        split::InProcChannel downlink;
        split::CollaborativeSession oracle(
            *oracle_parts.head, oracle_bodies, *oracle_parts.tail,
            [&selector](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink, downlink, wire);

        // Router client: private head/tail/selector, one channel per shard,
        // deliberately connected in the order 1, 0, 2. Each channel runs
        // through a wiretap so the frames each shard returns can be counted.
        harness::EnsembleParts client_parts =
            harness::make_linear_ensemble(kSeed, kBodies, kSelected);
        harness::set_eval(client_parts);
        std::vector<std::unique_ptr<split::Channel>> channels;
        std::vector<std::shared_ptr<split::TapLog>> taps;
        for (const std::size_t s : {1u, 0u, 2u}) {
            taps.push_back(std::make_shared<split::TapLog>());
            channels.push_back(std::make_unique<split::TapChannel>(
                split::tcp_connect("127.0.0.1", hosts[s]->port()), taps.back()));
        }
        ShardRouter router(std::move(channels), *client_parts.head, nullptr,
                           *client_parts.tail, selector, wire);
        router.set_recv_timeout(kRequestTimeout);

        // The shard map mirrors the scrambled connection order; the body
        // index -> shard lookup resolves through it.
        ASSERT_EQ(router.shard_count(), kShards);
        ASSERT_EQ(router.body_count(), kBodies);
        EXPECT_EQ(router.shard_map()[0].body_begin, kPerShard);
        EXPECT_EQ(router.shard_map()[1].body_begin, 0u);
        EXPECT_EQ(router.shard_map()[2].body_begin, 2 * kPerShard);
        EXPECT_EQ(router.shard_of_body(0), 1u);
        EXPECT_EQ(router.shard_of_body(3), 0u);
        EXPECT_EQ(router.shard_of_body(5), 2u);

        for (std::size_t r = 0; r < inputs.size(); ++r) {
            const InferenceResult result = router.infer(inputs[r]);
            const Tensor expected = oracle.infer(inputs[r]);
            ASSERT_EQ(result.logits.shape(), expected.shape());
            // to_vector equality is bitwise for float payloads.
            EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
                << split::wire_format_name(wire) << " request " << r;
        }

        // Per-shard accounting: every shard saw every request, and each
        // uplink carried the oracle's per-server byte volume (the same
        // encoded features go to each shard).
        EXPECT_EQ(router.stats().requests(), inputs.size());
        for (std::size_t s = 0; s < kShards; ++s) {
            EXPECT_EQ(router.shard_stats(s).requests(), inputs.size()) << "shard " << s;
            EXPECT_EQ(router.shard_traffic(s).messages, oracle.uplink_stats().messages)
                << "shard " << s;
            EXPECT_EQ(router.shard_traffic(s).bytes, oracle.uplink_stats().bytes)
                << "shard " << s;
            // Downlink: the handshake, then one reply frame per held body
            // per request.
            EXPECT_EQ(taps[s]->received_count(), 1 + inputs.size() * kPerShard) << "shard " << s;
            if (wire == split::WireFormat::f32) {
                f32_shard_bytes.push_back(router.shard_traffic(s).bytes);
            } else {
                EXPECT_LT(router.shard_traffic(s).bytes, f32_shard_bytes[s]) << "shard " << s;
            }
        }
        router.close();
    }
}

TEST(ShardRouter, HoldsOneThreadPerLinkPlusTheRedialer) {
    harness::EnsembleParts host_parts = harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(host_parts);
    std::vector<nn::Layer*> host_bodies;
    for (nn::LayerPtr& body : host_parts.bodies) {
        host_bodies.push_back(body.get());
    }
    const auto hosts =
        harness::serve_shard_plan(host_bodies, split::ShardPlan::blocks(kBodies, kShards));
    // A host sends its handshake from its event loop, which starts its
    // worker pool first: once every probe has read one, no host thread is
    // still to come.
    for (const auto& host : hosts) {
        split::tcp_connect("127.0.0.1", host->port())->recv();
    }
    const core::Selector selector(kBodies, {0, 2, 5});
    harness::EnsembleParts client_parts =
        harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(client_parts);

    std::vector<std::unique_ptr<split::Channel>> channels;
    std::vector<std::vector<ReplicaEndpoint>> endpoints;
    for (const auto& host : hosts) {
        channels.push_back(split::tcp_connect("127.0.0.1", host->port()));
        endpoints.push_back({ReplicaEndpoint{"127.0.0.1", host->port()}});
    }
    const std::size_t before = harness::process_thread_count();
    ASSERT_GT(before, 0u);

    ShardRouter from_channels(std::move(channels), *client_parts.head, nullptr,
                              *client_parts.tail, selector);
    EXPECT_EQ(harness::process_thread_count(), before + kShards);

    ShardRouter from_endpoints(endpoints, *client_parts.head, nullptr, *client_parts.tail,
                               selector);
    EXPECT_EQ(harness::process_thread_count(), before + 2 * kShards + 1);
}

}  // namespace
}  // namespace ens::serve
