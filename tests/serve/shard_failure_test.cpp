// Shard-failure semantics of the ShardRouter: SIGKILL one of three shard
// hosts mid-session and the next request must surface a typed ens::Error
// (channel_closed or io_error, tagged with the shard) within the configured
// timeout — never a hang — while the surviving shards complete their round
// trips and keep their streams aligned. The session must then be fully
// usable again after reconnect_shard() to a replacement host: a replacement
// advertising the WRONG body range is rejected typed, the right one
// restores bit-parity with the in-proc oracle. The shard hosts are exec'd
// serve_daemon processes booted from one bundle, each hosting its slice
// via --bodies.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/selector.hpp"
#include "daemon_harness.hpp"
#include "serve/shard_router.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::size_t kBodies = 6;
constexpr std::size_t kShards = 3;
constexpr std::size_t kPerShard = kBodies / kShards;
constexpr std::size_t kSelected = 2;
constexpr std::uint64_t kSeed = 5200;
constexpr std::chrono::milliseconds kRequestTimeout{20000};

/// The shard daemon hosting bodies [begin, begin + count) of the bundle.
std::unique_ptr<perfbench::ChildProcess> exec_shard(const std::string& dir, std::size_t begin,
                                                    std::size_t count) {
    return harness::exec_daemon(
        dir, {"--bodies", std::to_string(begin) + ".." + std::to_string(begin + count)});
}

TEST(ShardFailure, KilledShardSurfacesTypedErrorAndSessionSurvivesReconnect) {
    const core::Selector selector(kBodies, {1, 4});

    // In-proc oracle for before/after parity; its parts are also the
    // deployment the shard daemons boot.
    harness::EnsembleParts oracle_parts = harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(oracle_parts);
    const std::string dir = harness::bundle_dir_for("shard_failure");
    harness::save_generation(dir, oracle_parts, oracle_parts, selector);
    std::vector<std::unique_ptr<perfbench::ChildProcess>> daemons;
    std::vector<std::uint16_t> ports;
    for (std::size_t s = 0; s < kShards; ++s) {
        daemons.push_back(exec_shard(dir, s * kPerShard, kPerShard));
        ports.push_back(daemons.back()->wait_for_port(harness::kDaemonBoot));
    }

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

    harness::EnsembleParts client_parts = harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(client_parts);
    std::vector<std::unique_ptr<split::Channel>> channels;
    for (std::size_t s = 0; s < kShards; ++s) {
        channels.push_back(split::tcp_connect("127.0.0.1", ports[s]));
    }
    ShardRouter router(std::move(channels), *client_parts.head, nullptr, *client_parts.tail,
                       selector, split::WireFormat::f32);
    router.set_recv_timeout(kRequestTimeout);

    Rng data_rng(47);
    const Tensor input = Tensor::randn(Shape{2, harness::kIn}, data_rng);

    // Healthy baseline.
    EXPECT_EQ(router.infer(input).logits.to_vector(), oracle.infer(input).to_vector());

    // Kill the middle shard (hosting bodies [2, 4)) and request again: the
    // failure must be a typed transport error naming that shard, delivered
    // well inside the recv timeout — not a hang, not a crash.
    ASSERT_EQ(::kill(daemons[1]->pid(), SIGKILL), 0);
    daemons[1]->stop();  // reaped: the shard is gone before the request
    const Stopwatch fail_watch;
    try {
        (void)router.infer(input);
        FAIL() << "infer over a killed shard did not throw";
    } catch (const Error& e) {
        EXPECT_TRUE(e.code() == ErrorCode::channel_closed || e.code() == ErrorCode::io_error ||
                    e.code() == ErrorCode::channel_timeout)
            << "unexpected code: " << error_code_name(e.code()) << " (" << e.what() << ")";
        EXPECT_NE(std::string(e.what()).find("shard 1"), std::string::npos) << e.what();
    }
    // channel_closed/io_error arrive at EOF speed; channel_timeout is the
    // backstop. Either way the wait is bounded by the configured timeout
    // (2x slack covers the timeout's enforcement granularity).
    EXPECT_LT(fail_watch.elapsed_ms(), 3.0 * kRequestTimeout.count());

    // The failed shard is marked desynchronized (its request/response
    // alignment is unknowable) and further inference is refused typed until
    // it is reconnected — a retry must never silently merge stale maps.
    EXPECT_TRUE(router.shard_needs_reconnect(1));
    EXPECT_FALSE(router.shard_needs_reconnect(0));
    EXPECT_FALSE(router.shard_needs_reconnect(2));
    try {
        (void)router.infer(input);
        FAIL() << "infer with a desynchronized shard did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::channel_closed) << e.what();
        EXPECT_NE(std::string(e.what()).find("reconnect"), std::string::npos) << e.what();
    }

    // A replacement host advertising the WRONG slice is refused typed and
    // does not replace the channel.
    {
        const auto wrong = exec_shard(dir, 0, kPerShard);  // bodies [0, 2), not [2, 4)
        const std::uint16_t wrong_port = wrong->wait_for_port(harness::kDaemonBoot);
        try {
            router.reconnect_shard(1, split::tcp_connect("127.0.0.1", wrong_port));
            FAIL() << "reconnect to a wrong-range host did not throw";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
        }
    }

    // The right replacement restores the session: same slice, bit-parity
    // with the oracle again, and the surviving shards' streams were never
    // desynchronized.
    const auto replacement = exec_shard(dir, 1 * kPerShard, kPerShard);
    router.reconnect_shard(
        1, split::tcp_connect("127.0.0.1", replacement->wait_for_port(harness::kDaemonBoot)));
    EXPECT_FALSE(router.shard_needs_reconnect(1));
    EXPECT_EQ(router.infer(input).logits.to_vector(), oracle.infer(input).to_vector());
    EXPECT_EQ(router.infer(input).logits.to_vector(), oracle.infer(input).to_vector());

    router.close();
    EXPECT_EQ(daemons[0]->stop(), 0);
    EXPECT_EQ(daemons[2]->stop(), 0);
    EXPECT_EQ(replacement->stop(), 0);
}

}  // namespace
}  // namespace ens::serve
