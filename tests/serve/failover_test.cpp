// Replica failover semantics of the ShardRouter: shard serving survives
// replica death with ZERO lost or duplicated requests. Replicas that get
// SIGSTOPped or SIGKILLed are exec'd serve_daemon processes booted from
// one bundle (daemon_harness.hpp), each hosting its slice via --bodies.
//
//   * Chaos acceptance: SIGSTOP one of R = 2 replicas so requests are
//     genuinely pending on it, fill a depth-4 in-flight window, SIGKILL the
//     frozen replica — every future must resolve bit-exact against the
//     in-proc CollaborativeSession oracle (the failover replays retained
//     payloads onto the surviving sibling; exactly-once toward the client),
//     and the killed replica must be re-admitted by the background redialer
//     within the retry schedule once a replacement binds its old port.
//   * Scripted determinism: the same failover path driven by a
//     split::FaultChannel close_hard at an exact per-direction message
//     index over loopback connections to in-process reactors — no
//     signals, the identical failure point on every run — including the last-replica
//     case (future faults typed naming the replica, submission refused
//     typed until reconnect).
//   * Reconnect race: a flapper thread SIGKILLs and manually
//     reconnect_shard()s a replica in a loop while the main thread hammers
//     submit() — every future must still resolve bit-exact, never hang.
//   * Degraded boot: constructing the router while one replica endpoint is
//     DOWN must succeed (the replica enters born-failed and the background
//     redialer admits it once a daemon binds its port); only a shard with
//     no reachable replica at all refuses to boot, typed and labeled.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "daemon_harness.hpp"
#include "serve/retry.hpp"
#include "serve/shard_router.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/fault_channel.hpp"
#include "split/session.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::size_t kBodies = 4;
constexpr std::size_t kShards = 2;
constexpr std::size_t kPerShard = kBodies / kShards;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kSelected = 2;
constexpr std::uint64_t kSeed = 6100;
constexpr std::chrono::milliseconds kRequestTimeout{20000};

using Daemon = std::unique_ptr<perfbench::ChildProcess>;

/// Writes the kSeed deployment as a bundle; every replica boots from it.
std::string save_deployment(const std::string& name) {
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(parts);
    const std::string dir = harness::bundle_dir_for(name);
    harness::save_generation(dir, parts, parts, core::Selector(kBodies, {0, 3}));
    return dir;
}

/// A replica daemon hosting bodies [begin, begin + count) of the bundle;
/// a nonzero `port` reclaims a killed replica's address.
Daemon exec_replica(const std::string& dir, std::size_t begin, std::size_t count,
                    std::uint16_t port = 0) {
    return harness::exec_daemon(
        dir, {"--bodies", std::to_string(begin) + ".." + std::to_string(begin + count)}, port);
}

/// Small backoffs so the background redialer's cadence, not the test's
/// patience, bounds re-admission.
RetryPolicy fast_retry() {
    RetryPolicy retry;
    retry.max_attempts = 4;
    retry.base_backoff = std::chrono::milliseconds(20);
    retry.max_backoff = std::chrono::milliseconds(100);
    retry.connect_timeout = std::chrono::milliseconds(2000);
    return retry;
}

bool wait_until(const std::function<bool()>& condition, std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (condition()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return condition();
}

/// Oracle outputs for `count` deterministic inputs — computed in-proc
/// BEFORE any chaos so each future's logits have a precomputed ground
/// truth regardless of completion order.
struct OracleRun {
    std::vector<Tensor> inputs;
    std::vector<std::vector<float>> expected;
};

OracleRun precompute_oracle(std::uint64_t model_seed, std::size_t bodies,
                            std::size_t selected, const core::Selector& selector,
                            std::size_t count, std::uint64_t data_seed) {
    harness::EnsembleParts parts = harness::make_linear_ensemble(model_seed, bodies, selected);
    harness::set_eval(parts);
    std::vector<nn::Layer*> oracle_bodies;
    for (nn::LayerPtr& body : parts.bodies) {
        oracle_bodies.push_back(body.get());
    }
    split::InProcChannel uplink;
    split::InProcChannel downlink;
    split::CollaborativeSession oracle(
        *parts.head, oracle_bodies, *parts.tail,
        [&selector](const std::vector<Tensor>& features) { return selector.apply(features); },
        uplink, downlink, split::WireFormat::f32);

    OracleRun run;
    Rng data_rng(data_seed);
    for (std::size_t i = 0; i < count; ++i) {
        run.inputs.push_back(Tensor::randn(Shape{2, harness::kIn}, data_rng));
        run.expected.push_back(oracle.infer(run.inputs.back()).to_vector());
    }
    return run;
}

// SIGKILL one of R = 2 replicas with a depth-4 window in flight on it: the
// acceptance chaos test. Zero lost requests (every future bit-exact), zero
// duplicates (each future resolves exactly once, and a duplicated wire
// delivery would trip the demux's typed duplicate-reply check), and the
// dead replica is re-admitted by the background redialer once a
// replacement daemon binds its old port — proven by killing the OTHER
// replica and serving through the re-admitted one alone.
TEST(Failover, KilledReplicaMidWindowFailsOverBitExactAndIsReadmitted) {
    // daemons[s * kReplicas + r] = replica r of shard s.
    const std::string dir = save_deployment("failover_chaos");
    std::vector<Daemon> daemons;
    std::vector<std::uint16_t> ports;
    for (std::size_t s = 0; s < kShards; ++s) {
        for (std::size_t r = 0; r < kReplicas; ++r) {
            daemons.push_back(exec_replica(dir, s * kPerShard, kPerShard));
            ports.push_back(daemons.back()->wait_for_port(harness::kDaemonBoot));
        }
    }

    const core::Selector selector(kBodies, {0, 3});
    const OracleRun oracle = precompute_oracle(kSeed, kBodies, kSelected, selector,
                                               /*count=*/9, /*data_seed=*/61);

    harness::EnsembleParts client_parts = harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(client_parts);

    std::vector<std::vector<ReplicaEndpoint>> endpoints(kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
        for (std::size_t r = 0; r < kReplicas; ++r) {
            endpoints[s].push_back(ReplicaEndpoint{"127.0.0.1", ports[s * kReplicas + r]});
        }
    }
    ShardRouter router(endpoints, *client_parts.head, nullptr, *client_parts.tail, selector,
                       split::WireFormat::f32, fast_retry(), /*max_inflight=*/4);
    router.set_recv_timeout(kRequestTimeout);
    // The stuck-replica window below needs >= 2 so requests on the healthy
    // sibling keep retiring while the frozen one holds its share.
    ASSERT_GE(router.window(), 2u);
    ASSERT_EQ(router.replica_status(0).configured, kReplicas);
    ASSERT_EQ(router.replica_status(0).healthy, kReplicas);

    // Healthy baseline.
    EXPECT_EQ(router.infer(oracle.inputs[0]).logits.to_vector(), oracle.expected[0]);

    // Freeze replica 1 of shard 0 (SIGSTOP: connection open, nothing
    // answers) so the round-robin requests routed to it are genuinely
    // pending at kill time, then fill a depth-4 window and SIGKILL it.
    const std::uint16_t flapped_port = ports[1];
    ASSERT_EQ(::kill(daemons[1]->pid(), SIGSTOP), 0);
    // kill() only queues the stop. Until every thread of the daemon has
    // stopped, it can still answer the requests sent to it below.
    int stop_status = 0;
    ASSERT_EQ(::waitpid(daemons[1]->pid(), &stop_status, WUNTRACED), daemons[1]->pid());
    ASSERT_TRUE(WIFSTOPPED(stop_status));
    std::vector<std::future<InferenceResult>> window;
    for (std::size_t i = 1; i <= 4; ++i) {
        window.push_back(router.submit(oracle.inputs[i]));
    }
    ASSERT_EQ(::kill(daemons[1]->pid(), SIGKILL), 0);
    daemons[1]->stop();  // reaped: its port is free to reclaim

    // Zero lost requests: every future — including the ones that were in
    // flight on the killed replica — resolves bit-exact via the sibling.
    for (std::size_t i = 1; i <= 4; ++i) {
        EXPECT_EQ(window[i - 1].get().logits.to_vector(), oracle.expected[i])
            << "request " << i << " diverged from the oracle";
    }
    EXPECT_GE(router.failovers_total(), 1u);
    EXPECT_EQ(router.stats().failovers(), router.failovers_total());
    EXPECT_GE(router.shard_stats(0).failovers(), 1u);
    // A surviving sibling means the shard is NOT desynchronized.
    EXPECT_FALSE(router.shard_needs_reconnect(0));
    EXPECT_EQ(router.replica_status(0).configured, kReplicas);
    EXPECT_EQ(router.replica_status(0).healthy, kReplicas - 1);

    // A replacement daemon reclaims the killed replica's port; the
    // background redialer must re-admit it on the retry schedule with no
    // client involvement.
    const Daemon replacement = exec_replica(dir, 0, kPerShard, flapped_port);
    ASSERT_EQ(replacement->wait_for_port(harness::kDaemonBoot), flapped_port);
    ASSERT_TRUE(wait_until([&] { return router.replica_status(0).healthy == kReplicas; },
                           std::chrono::seconds(15)))
        << "background redial did not re-admit the replaced replica";
    EXPECT_GE(router.stats().retries(), 1u);
    EXPECT_GE(router.shard_stats(0).retries(), 1u);

    // The re-admitted replica genuinely serves: kill shard 0's OTHER
    // replica and route another window through — bit-parity must hold with
    // the replacement as the shard's only healthy member.
    ASSERT_EQ(::kill(daemons[0]->pid(), SIGKILL), 0);
    std::vector<std::future<InferenceResult>> after;
    for (std::size_t i = 5; i < 9; ++i) {
        after.push_back(router.submit(oracle.inputs[i]));
    }
    for (std::size_t i = 5; i < 9; ++i) {
        EXPECT_EQ(after[i - 5].get().logits.to_vector(), oracle.expected[i])
            << "request " << i << " diverged after the second kill";
    }
    EXPECT_FALSE(router.shard_needs_reconnect(0));

    router.close();
    // Shard 1's replicas and the replacement were never killed: each must
    // drain and exit cleanly.
    EXPECT_EQ(daemons[2]->stop(), 0);
    EXPECT_EQ(daemons[3]->stop(), 0);
    EXPECT_EQ(replacement->stop(), 0);
}

// The same failover path with a scripted, index-exact failure — no
// signals, bit-identical schedule on every run. Replica 0 dies
// mid-stream on its SECOND request (client send index 1): the in-flight
// request replays on replica 1 and completes bit-exact. Replica 1 then
// dies with no sibling left: that future faults typed naming the replica,
// and further submission is refused typed until a reconnect.
TEST(Failover, ScriptedReplicaDeathReplaysInFlightAndLastReplicaFaultsTyped) {
    constexpr std::size_t kLocalBodies = 2;
    constexpr std::uint64_t kLocalSeed = 6200;
    const core::Selector selector(kLocalBodies, {1});
    const OracleRun oracle = precompute_oracle(kLocalSeed, kLocalBodies, /*selected=*/1,
                                               selector, /*count=*/6, /*data_seed=*/62);

    // Two in-process replica hosts of the same full slice, each a reactor
    // on its own loopback listener.
    const auto make_replica = [] {
        harness::EnsembleParts parts = harness::make_linear_ensemble(kLocalSeed, kLocalBodies, 1);
        return harness::ReactorFixture(std::make_shared<BodyHost>(std::move(parts.bodies)));
    };
    harness::ReactorFixture host_a = make_replica();
    harness::ReactorFixture host_b = make_replica();

    // The handshake is one host->client message; client sends are request
    // frames only, so send index == the k-th request routed through that
    // replica. Round-robin routes requests 0, 2 to replica 0 and 1, 3 to
    // replica 1 (a replay advances the cursor like any assignment).
    split::FaultAction die_a;
    die_a.kind = split::FaultAction::Kind::close_hard;
    die_a.direction = split::FaultAction::Direction::send;
    die_a.at = 1;  // request 2, with the request in flight
    split::FaultAction die_b;
    die_b.kind = split::FaultAction::Kind::close_hard;
    die_b.direction = split::FaultAction::Direction::send;
    die_b.at = 3;  // request 4 — by then replica 0 is already gone
    std::vector<std::vector<std::unique_ptr<split::Channel>>> groups;
    groups.emplace_back();
    groups.back().push_back(std::make_unique<split::FaultChannel>(
        split::tcp_connect("127.0.0.1", host_a.port()), std::vector<split::FaultAction>{die_a}));
    groups.back().push_back(std::make_unique<split::FaultChannel>(
        split::tcp_connect("127.0.0.1", host_b.port()), std::vector<split::FaultAction>{die_b}));

    harness::EnsembleParts client_parts =
        harness::make_linear_ensemble(kLocalSeed, kLocalBodies, 1);
    harness::set_eval(client_parts);
    ShardRouter router(std::move(groups), *client_parts.head, nullptr, *client_parts.tail,
                       selector, split::WireFormat::f32, fast_retry(), /*max_inflight=*/4);
    router.set_recv_timeout(kRequestTimeout);

    // Requests 0-3 all complete bit-exact: request 2's mid-stream death is
    // absorbed by a replay onto replica 1 (exactly one failover).
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(router.infer(oracle.inputs[i]).logits.to_vector(), oracle.expected[i])
            << "request " << i;
    }
    EXPECT_EQ(router.failovers_total(), 1u);
    EXPECT_EQ(router.stats().failovers(), 1u);
    EXPECT_EQ(router.shard_stats(0).failovers(), 1u);
    EXPECT_FALSE(router.shard_needs_reconnect(0));
    EXPECT_EQ(router.replica_status(0).healthy, 1u);

    // Request 4 kills the LAST replica: the future faults typed, naming the
    // replica, and the failed replay attempt is not counted as a failover.
    try {
        (void)router.infer(oracle.inputs[4]);
        FAIL() << "infer over the last dying replica did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::channel_closed) << e.what();
        EXPECT_NE(std::string(e.what()).find("replica 1"), std::string::npos) << e.what();
    }
    EXPECT_EQ(router.failovers_total(), 1u);
    EXPECT_TRUE(router.shard_needs_reconnect(0));
    EXPECT_EQ(router.replica_status(0).healthy, 0u);

    // Submission is refused typed (with the reconnect hint) while no
    // replica survives — never silently wrong, never a hang.
    try {
        (void)router.infer(oracle.inputs[5]);
        FAIL() << "infer with every replica dead did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::channel_closed) << e.what();
        EXPECT_NE(std::string(e.what()).find("reconnect"), std::string::npos) << e.what();
    }

    router.close();
}

// reconnect_shard() racing concurrent submit(): a flapper thread SIGKILLs
// the second replica and manually swaps in a replacement, three times in a
// row, while the main thread keeps a window of submissions in flight the
// whole time. With the first replica never failing, EVERY future must
// resolve bit-exact (failover absorbs each kill) and none may hang; the
// flapper's reconnects must all be accepted.
TEST(Failover, ManualReconnectRacesSubmitsWhileAReplicaFlaps) {
    constexpr std::size_t kFlaps = 3;
    // flappy[0] is the original second replica; flappy[c + 1] replaces
    // flappy[c]. All are exec'd up front from this thread: a daemon dies
    // with the thread that spawned it, and the flapper thread ends first.
    const std::string dir = save_deployment("failover_flap");
    const Daemon stable = exec_replica(dir, 0, kBodies);
    std::vector<Daemon> flappy;
    std::vector<std::uint16_t> flappy_ports;
    for (std::size_t c = 0; c <= kFlaps; ++c) {
        flappy.push_back(exec_replica(dir, 0, kBodies));
        flappy_ports.push_back(flappy.back()->wait_for_port(harness::kDaemonBoot));
    }
    const std::uint16_t stable_port = stable->wait_for_port(harness::kDaemonBoot);

    const core::Selector selector(kBodies, {0, 3});
    const OracleRun oracle = precompute_oracle(kSeed, kBodies, kSelected, selector,
                                               /*count=*/5, /*data_seed=*/63);

    harness::EnsembleParts client_parts = harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(client_parts);
    std::vector<std::vector<std::unique_ptr<split::Channel>>> groups;
    groups.emplace_back();
    groups.back().push_back(split::tcp_connect("127.0.0.1", stable_port));
    groups.back().push_back(split::tcp_connect("127.0.0.1", flappy_ports[0]));
    RetryPolicy retry = fast_retry();
    retry.base_backoff = std::chrono::milliseconds(10);
    retry.max_backoff = std::chrono::milliseconds(50);
    ShardRouter router(std::move(groups), *client_parts.head, nullptr, *client_parts.tail,
                       selector, split::WireFormat::f32, retry, /*max_inflight=*/4);
    router.set_recv_timeout(kRequestTimeout);

    std::atomic<bool> flapping_done{false};
    std::string flap_error;
    std::thread flapper([&] {
        try {
            for (std::size_t cycle = 0; cycle < kFlaps; ++cycle) {
                if (::kill(flappy[cycle]->pid(), SIGKILL) != 0) {
                    throw std::runtime_error("cannot SIGKILL the flapping replica");
                }
                // The demux notices the dead stream on its own (EOF), even
                // with no request in flight on it.
                if (!wait_until([&] { return router.replica_status(0).healthy == 1; },
                                std::chrono::seconds(10))) {
                    throw std::runtime_error("router never noticed the killed replica");
                }
                router.reconnect_shard(
                    0, split::tcp_connect("127.0.0.1", flappy_ports[cycle + 1]));
                // Let some traffic ride the fresh replica before flapping
                // it again.
                std::this_thread::sleep_for(std::chrono::milliseconds(30));
            }
        } catch (const std::exception& e) {
            flap_error = e.what();
        }
        flapping_done.store(true);
    });

    // Hammer submissions for the whole flap schedule; futures are drained
    // oldest-first so the in-flight window stays full without unbounded
    // accumulation. submit() runs on this thread only (its contract).
    std::vector<std::future<InferenceResult>> futures;
    std::vector<std::size_t> which;
    std::size_t submitted = 0;
    constexpr std::size_t kSafetyValve = 4096;
    while ((!flapping_done.load() || submitted < 24) && submitted < kSafetyValve) {
        const std::size_t i = submitted % oracle.inputs.size();
        futures.push_back(router.submit(oracle.inputs[i]));
        which.push_back(i);
        ++submitted;
        if (futures.size() >= 8) {
            EXPECT_EQ(futures.front().get().logits.to_vector(), oracle.expected[which.front()])
                << "request " << (submitted - futures.size()) << " diverged mid-flap";
            futures.erase(futures.begin());
            which.erase(which.begin());
        }
    }
    flapper.join();
    EXPECT_TRUE(flap_error.empty()) << flap_error;
    for (std::size_t f = 0; f < futures.size(); ++f) {
        EXPECT_EQ(futures[f].get().logits.to_vector(), oracle.expected[which[f]])
            << "drained request " << f << " diverged";
    }

    // The last reconnect left both replicas healthy and the session
    // bit-exact.
    EXPECT_EQ(router.replica_status(0).healthy, 2u);
    EXPECT_EQ(router.infer(oracle.inputs[0]).logits.to_vector(), oracle.expected[0]);

    router.close();
    EXPECT_EQ(stable->stop(), 0);
    EXPECT_EQ(flappy[kFlaps]->stop(), 0);
}

// A deployment with a crashed replica must still accept NEW clients, or
// replication buys nothing at boot time. Shard 1's FIRST endpoint is dead
// at construction (its port was reserved by a daemon killed before the
// dial), so the shard's slice must be learned from the surviving sibling;
// the router must come up degraded, serve bit-exact, and the background
// redialer must admit the born-failed replica once a daemon binds its
// port — proven by killing the sibling and serving through the newcomer
// alone. A shard with NO reachable replica still refuses to boot, typed
// and labeled with the last dial failure's address.
TEST(Failover, BootsDegradedWithDeadReplicaAndAdmitsItInBackground) {
    // Reserve a port for the dead endpoint: start a daemon, SIGKILL it.
    // Connects to the port are refused until the replacement rebinds it.
    const std::string dir = save_deployment("failover_degraded");
    const Daemon port_holder = exec_replica(dir, kPerShard, kPerShard);
    std::vector<Daemon> daemons;
    daemons.push_back(exec_replica(dir, 0, kPerShard));          // shard 0 replica 0
    daemons.push_back(exec_replica(dir, 0, kPerShard));          // shard 0 replica 1
    daemons.push_back(exec_replica(dir, kPerShard, kPerShard));  // shard 1 replica 1
    std::vector<std::uint16_t> ports;
    for (const Daemon& daemon : daemons) {
        ports.push_back(daemon->wait_for_port(harness::kDaemonBoot));
    }
    const std::uint16_t dead_port = port_holder->wait_for_port(harness::kDaemonBoot);
    ASSERT_EQ(::kill(port_holder->pid(), SIGKILL), 0);
    port_holder->stop();  // reaped: the port is closed until the replacement

    const core::Selector selector(kBodies, {0, 3});
    const OracleRun oracle = precompute_oracle(kSeed, kBodies, kSelected, selector,
                                               /*count=*/9, /*data_seed=*/64);
    harness::EnsembleParts client_parts = harness::make_linear_ensemble(kSeed, kBodies, kSelected);
    harness::set_eval(client_parts);

    std::vector<std::vector<ReplicaEndpoint>> endpoints(kShards);
    endpoints[0].push_back(ReplicaEndpoint{"127.0.0.1", ports[0]});
    endpoints[0].push_back(ReplicaEndpoint{"127.0.0.1", ports[1]});
    endpoints[1].push_back(ReplicaEndpoint{"127.0.0.1", dead_port});
    endpoints[1].push_back(ReplicaEndpoint{"127.0.0.1", ports[2]});
    ShardRouter router(endpoints, *client_parts.head, nullptr, *client_parts.tail, selector,
                       split::WireFormat::f32, fast_retry(), /*max_inflight=*/4);
    router.set_recv_timeout(kRequestTimeout);

    // Construction succeeded degraded: the dead endpoint is a configured
    // but unhealthy replica, NOT a desynchronized shard, and the slice map
    // is complete despite shard 1's replica 0 never handshaking.
    EXPECT_EQ(router.replica_status(0).healthy, kReplicas);
    EXPECT_EQ(router.replica_status(1).configured, kReplicas);
    EXPECT_EQ(router.replica_status(1).healthy, kReplicas - 1);
    EXPECT_FALSE(router.shard_needs_reconnect(1));
    ASSERT_EQ(router.shard_map().size(), kShards);
    EXPECT_EQ(router.shard_map()[1].body_begin, kPerShard);
    EXPECT_EQ(router.shard_map()[1].body_count, kPerShard);

    // Degraded but bit-exact through the survivors.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(router.infer(oracle.inputs[i]).logits.to_vector(), oracle.expected[i])
            << "degraded request " << i;
    }

    // A daemon binds the dead port: the background redialer must admit the
    // born-failed replica on the retry schedule, no client involvement.
    const Daemon replacement = exec_replica(dir, kPerShard, kPerShard, dead_port);
    ASSERT_EQ(replacement->wait_for_port(harness::kDaemonBoot), dead_port);
    ASSERT_TRUE(wait_until([&] { return router.replica_status(1).healthy == kReplicas; },
                           std::chrono::seconds(15)))
        << "background redial did not admit the born-failed replica";

    // The admitted replica genuinely serves: kill shard 1's original
    // replica and route a window through the newcomer alone.
    ASSERT_EQ(::kill(daemons[2]->pid(), SIGKILL), 0);
    daemons[2]->stop();  // reaped: its port is dead for the check below
    std::vector<std::future<InferenceResult>> window;
    for (std::size_t i = 4; i < 9; ++i) {
        window.push_back(router.submit(oracle.inputs[i]));
    }
    for (std::size_t i = 4; i < 9; ++i) {
        EXPECT_EQ(window[i - 4].get().logits.to_vector(), oracle.expected[i])
            << "request " << i << " diverged after the sibling kill";
    }
    EXPECT_FALSE(router.shard_needs_reconnect(1));

    // Degraded boot has a floor: a shard whose EVERY replica is
    // unreachable throws the last dial error, labeled with the address.
    // daemons[2]'s port is dead again now that it was killed.
    std::vector<std::vector<ReplicaEndpoint>> all_dead(1);
    all_dead[0].push_back(ReplicaEndpoint{"127.0.0.1", ports[2]});
    RetryPolicy one_shot = fast_retry();
    one_shot.max_attempts = 1;
    try {
        ShardRouter refused(all_dead, *client_parts.head, nullptr, *client_parts.tail, selector,
                            split::WireFormat::f32, one_shot, /*max_inflight=*/4);
        FAIL() << "router with an all-dead shard constructed";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::io_error) << e.what();
        EXPECT_NE(std::string(e.what()).find(std::to_string(ports[2])), std::string::npos)
            << e.what();
    }

    router.close();
    EXPECT_EQ(daemons[0]->stop(), 0);
    EXPECT_EQ(daemons[1]->stop(), 0);
    EXPECT_EQ(replacement->stop(), 0);
}

}  // namespace
}  // namespace ens::serve
