// Restart-parity regression suite for deployment bundles, forked half:
// daemons that boot purely from a bundle directory — no trainer objects,
// no shared seeds, no live layer pointers cross the fork — must serve
// outputs BIT-IDENTICAL to the trainer's own in-proc sequential oracle.
// Configurations: single host and 3-shard §III-D, each pipelined
// (in-flight window > 1), each for lossless f32 and quantized q8 wire.
//
// The secret stays client-side on disk too: BodyHost::from_bundle boots
// with CLIENT.ens deleted outright (a body-host machine never holds the
// selector), which this suite pins. The in-process cases live in
// bundle_restart_test, so that suite stays fork-free and runs under TSan.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bundle_restart_harness.hpp"
#include "core/selector.hpp"
#include "serve/bundle.hpp"
#include "serve/remote.hpp"
#include "serve/shard_router.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

namespace fs = std::filesystem;
using namespace harness;

TEST(BundleRestart, ForkedSingleHostBootedFromBundleIsBitIdenticalToOracle) {
    const std::string dir = bundle_dir_for("single_host");
    const core::Selector selector(3, {0, 2});
    harness::ConvEnsembleParts parts = make_trained_bundle(dir, /*num_bodies=*/3, selector);

    // The client half comes off disk too — then the secret file is deleted
    // BEFORE the daemon forks, to prove a body host never needs it. The
    // daemon child knows ONLY the directory path: no layers, no seeds, no
    // selector cross the fork.
    ClientArtifacts client = load_bundle_client(dir, 3);
    ASSERT_NE(client.noise, nullptr);
    ASSERT_TRUE(fs::remove(fs::path(dir) / kClientFileName));
    harness::ForkedDaemon daemon = harness::spawn_body_host(
        [dir] { return BodyHost::from_bundle(dir); }, /*connections=*/2);
    ASSERT_GT(daemon.port(), 0);

    const std::vector<Tensor> inputs = make_inputs(31);
    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        Oracle oracle(parts, selector, wire);

        RemoteSession session(split::tcp_connect("127.0.0.1", daemon.port()), *client.head,
                              client.noise.get(), *client.tail, client.selector, wire,
                              std::chrono::seconds(30), kInflight);
        session.set_recv_timeout(kRequestTimeout);
        ASSERT_EQ(session.body_count(), 3u);
        ASSERT_GT(session.window(), 1u) << "pipelined configuration required";

        // Pipelined: all requests in flight before the first wait.
        std::vector<std::future<InferenceResult>> futures;
        for (const Tensor& input : inputs) {
            futures.push_back(session.submit(input));
        }
        for (std::size_t r = 0; r < inputs.size(); ++r) {
            const InferenceResult result = futures[r].get();
            const Tensor expected = oracle.infer(inputs[r]);
            ASSERT_EQ(result.logits.shape(), expected.shape());
            EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
                << split::wire_format_name(wire) << " request " << r;
        }
        session.close();
    }
    EXPECT_EQ(daemon.wait_exit_code(), 0) << "bundle daemon did not exit cleanly";
}

TEST(BundleRestart, ForkedThreeShardPipelinedFromBundleIsBitIdenticalToOracle) {
    constexpr std::size_t kBodies = 6;
    constexpr std::size_t kShards = 3;
    constexpr std::size_t kPerShard = kBodies / kShards;

    const std::string dir = bundle_dir_for("three_shard");
    // Selector spans all three shards (the §III-D non-collusion argument).
    const core::Selector selector(kBodies, {0, 3, 5});
    harness::ConvEnsembleParts parts = make_trained_bundle(dir, kBodies, selector);

    // Client artifacts come off disk BEFORE the secret file is removed
    // from what the shard hosts see.
    ClientArtifacts client = load_bundle_client(dir, kBodies);
    ASSERT_NE(client.noise, nullptr);
    ASSERT_TRUE(fs::remove(fs::path(dir) / kClientFileName));

    // Each shard child boots ONLY its own slice from the directory.
    std::vector<harness::ForkedDaemon> daemons;
    for (std::size_t s = 0; s < kShards; ++s) {
        const std::size_t begin = s * kPerShard;
        daemons.push_back(harness::spawn_body_host(
            [dir, begin] { return BodyHost::from_bundle(dir, begin, kPerShard); },
            /*connections=*/2));
    }
    for (const harness::ForkedDaemon& daemon : daemons) {
        ASSERT_GT(daemon.port(), 0);
    }

    const std::vector<Tensor> inputs = make_inputs(32);
    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        Oracle oracle(parts, selector, wire);

        std::vector<std::unique_ptr<split::Channel>> channels;
        for (const std::size_t s : {2u, 0u, 1u}) {  // scrambled on purpose
            channels.push_back(split::tcp_connect("127.0.0.1", daemons[s].port()));
        }
        ShardRouter router(std::move(channels), *client.head, client.noise.get(), *client.tail,
                           client.selector, wire, std::chrono::seconds(30), kInflight);
        router.set_recv_timeout(kRequestTimeout);
        ASSERT_EQ(router.body_count(), kBodies);
        ASSERT_GT(router.window(), 1u) << "pipelined configuration required";

        std::vector<std::future<InferenceResult>> futures;
        for (const Tensor& input : inputs) {
            futures.push_back(router.submit(input));
        }
        for (std::size_t r = 0; r < inputs.size(); ++r) {
            const InferenceResult result = futures[r].get();
            const Tensor expected = oracle.infer(inputs[r]);
            ASSERT_EQ(result.logits.shape(), expected.shape());
            EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
                << split::wire_format_name(wire) << " request " << r;
        }
        router.close();
    }
    for (std::size_t s = 0; s < kShards; ++s) {
        EXPECT_EQ(daemons[s].wait_exit_code(), 0) << "shard daemon " << s;
    }
}

}  // namespace
}  // namespace ens::serve
