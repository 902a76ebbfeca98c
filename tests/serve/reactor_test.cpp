// Reactor-host tests: the event-driven serving core must decouple
// connections-held from threads-spawned (the whole point of
// serve/reactor.hpp) without giving up one bit of serving fidelity.
//
//   - Soak: one in-process ReactorHost holds 1024+ idle connections while
//     pipelined f32 AND q8 sessions run interleaved traffic through it —
//     and the PROCESS THREAD COUNT does not move as connections are
//     added (asserted via /proc/self/status, not inferred). Gauges
//     (connections_held / active_requests / requests_served) are asserted
//     against known traffic. The reactor runs in-process precisely so
//     these internals are directly observable.
//   - Backend parity: the poll() fallback serves the same bytes as epoll.
//   - Version pinning: an in-process DeploymentManager swap leaves an
//     already-connected session bit-matching the OLD generation while new
//     connections handshake (and bit-match) the new one; the old
//     generation retires (live_versions shrinks) once its last session
//     closes.
//   - Hostile frames: a duplicate in-flight request id, a frame header
//     past the frame-size bound and a request frame too short for its tag
//     each close ONLY their own connection (counted in
//     connections_dropped) while a sibling session stays bit-exact.
//   - Graceful shutdown: a forked reactor daemon receiving SIGTERM with a
//     window of requests in flight answers every one of them (no torn
//     replies), then exits 0.
//
// Bit-parity oracle: the same in-proc sequential CollaborativeSession the
// other serve suites compare against.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "serve/deployment.hpp"
#include "serve/protocol.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"
#include "split/session.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::size_t kBodies = 3;
constexpr std::uint64_t kSeed = 4100;
constexpr std::chrono::milliseconds kRequestTimeout{120000};

/// Threads of this process right now (0 when /proc is unavailable — the
/// caller skips the assertion then).
std::size_t process_thread_count() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return static_cast<std::size_t>(std::stoul(line.substr(8)));
        }
    }
    return 0;
}

/// Raises RLIMIT_NOFILE to at least `need` fds; returns the resulting
/// soft limit.
rlim_t ensure_fd_limit(rlim_t need) {
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) {
        return 0;
    }
    if (rl.rlim_cur < need) {
        rlimit want = rl;
        want.rlim_cur = rl.rlim_max == RLIM_INFINITY ? need : std::min(need, rl.rlim_max);
        (void)::setrlimit(RLIMIT_NOFILE, &want);
        (void)::getrlimit(RLIMIT_NOFILE, &rl);
    }
    return rl.rlim_cur;
}

/// In-memory whole-deployment host over the shared deterministic ensemble
/// geometry (same seed -> bit-identical bodies everywhere).
std::shared_ptr<BodyHost> make_ensemble_host(std::uint64_t seed) {
    harness::EnsembleParts parts = harness::make_linear_ensemble(seed, kBodies,
                                                                 /*num_selected=*/2);
    return std::make_shared<BodyHost>(std::move(parts.bodies));
}

/// The sequential in-proc oracle (selector {0, 2} of 3). The client half
/// (head/tail) and the body weights may come from DIFFERENT seeds: a hot
/// swap replaces only the host's bodies, so a post-swap session is client
/// seed + NEW body seed.
struct Oracle {
    harness::EnsembleParts client_parts;
    harness::EnsembleParts body_parts;
    core::Selector selector{kBodies, {0, 2}};
    split::InProcChannel uplink;
    split::InProcChannel downlink;
    std::unique_ptr<split::CollaborativeSession> session;

    Oracle(std::uint64_t client_seed, std::uint64_t body_seed, split::WireFormat wire)
        : client_parts(harness::make_linear_ensemble(client_seed, kBodies, /*num_selected=*/2)),
          body_parts(harness::make_linear_ensemble(body_seed, kBodies, /*num_selected=*/2)) {
        harness::set_eval(client_parts);
        harness::set_eval(body_parts);
        std::vector<nn::Layer*> bodies;
        for (nn::LayerPtr& body : body_parts.bodies) {
            bodies.push_back(body.get());
        }
        session = std::make_unique<split::CollaborativeSession>(
            *client_parts.head, bodies, *client_parts.tail,
            [this](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink, downlink, wire);
    }
};

/// Client half for a RemoteSession against make_ensemble_host(seed).
struct ClientHalf {
    harness::EnsembleParts parts;
    core::Selector selector{kBodies, {0, 2}};

    explicit ClientHalf(std::uint64_t seed)
        : parts(harness::make_linear_ensemble(seed, kBodies, /*num_selected=*/2)) {
        harness::set_eval(parts);
    }

    // RemoteSession is deliberately pinned in place (mutex + stats
    // members), so hand sessions out behind unique_ptr.
    std::unique_ptr<RemoteSession> connect(std::uint16_t port, split::WireFormat wire,
                                           std::size_t max_inflight = kDefaultMaxInflight) {
        auto session = std::make_unique<RemoteSession>(
            split::tcp_connect("127.0.0.1", port), *parts.head, nullptr, *parts.tail,
            selector, wire, std::chrono::seconds(30), max_inflight);
        session->set_recv_timeout(kRequestTimeout);
        return session;
    }
};

/// Runs `rounds` pipelined requests through `session` and bit-compares
/// every reply against a fresh oracle: the session's client half is from
/// `client_seed`, the generation it is pinned to hosts `body_seed` bodies.
void expect_parity(RemoteSession& session, std::uint64_t client_seed, std::uint64_t body_seed,
                   split::WireFormat wire, std::size_t rounds, const char* what) {
    Oracle oracle(client_seed, body_seed, wire);
    Rng data_rng(body_seed ^ 0x5EED);
    std::vector<Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < rounds; ++r) {
        inputs.push_back(Tensor::randn(Shape{1 + static_cast<std::int64_t>(r % 3), harness::kIn},
                                       data_rng));
        futures.push_back(session.submit(inputs.back()));
    }
    for (std::size_t r = 0; r < rounds; ++r) {
        const InferenceResult result = futures[r].get();
        const Tensor expected = oracle.session->infer(inputs[r]);
        ASSERT_EQ(result.logits.shape(), expected.shape()) << what << " request " << r;
        EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
            << what << " (" << split::wire_format_name(wire) << ") request " << r;
    }
}

using harness::ReactorFixture;

/// Polls `predicate` until true or `timeout` (reactor teardown and gauge
/// updates are asynchronous to the test thread).
bool eventually(const std::function<bool()>& predicate,
                std::chrono::milliseconds timeout = std::chrono::seconds(20)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return predicate();
}

TEST(ReactorSoak, Holds1024ConnectionsOnFixedThreadsWithPipelinedParity) {
    constexpr std::size_t kIdleConnections = 1024;
    if (ensure_fd_limit(kIdleConnections + 256) < kIdleConnections + 128) {
        GTEST_SKIP() << "cannot raise RLIMIT_NOFILE high enough for the soak";
    }

    auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::move(manager), config);

    // Pipelined sessions FIRST (their construction spawns client-side I/O
    // workers); the thread-count snapshot below then isolates the cost of
    // adding idle connections.
    ClientHalf client(kSeed);
    auto f32_session = client.connect(fixture.port(), split::WireFormat::f32,
                                      /*max_inflight=*/4);
    auto q8_session = client.connect(fixture.port(), split::WireFormat::q8,
                                     /*max_inflight=*/4);
    EXPECT_EQ(f32_session->deployment_version(), 1u);

    // One warm-up request per session so every lazily-created thread
    // (worker pools, client receive paths) exists before the snapshot —
    // the assertion below must measure connections, not warm-up.
    Rng warmup_rng(1);
    (void)f32_session->infer(Tensor::randn(Shape{1, harness::kIn}, warmup_rng));
    (void)q8_session->infer(Tensor::randn(Shape{1, harness::kIn}, warmup_rng));

    const std::size_t threads_before = process_thread_count();

    // 1024 idle connections, each fully handshaken (so every one of them
    // is registered with the reactor, not parked in the backlog).
    std::vector<std::unique_ptr<split::TcpChannel>> idle;
    idle.reserve(kIdleConnections);
    for (std::size_t c = 0; c < kIdleConnections; ++c) {
        auto channel = split::tcp_connect("127.0.0.1", fixture.port());
        channel->set_recv_timeout(std::chrono::seconds(30));
        const HostInfo info = decode_handshake(channel->recv());
        ASSERT_EQ(info.total_bodies, kBodies) << "connection " << c;
        ASSERT_EQ(info.deployment_version, 1u) << "connection " << c;
        idle.push_back(std::move(channel));
    }

    const std::size_t threads_after = process_thread_count();
    if (threads_before != 0) {
        // THE decoupling claim: 1024 extra connections, zero extra threads
        // (client side added none — raw channels have no workers — and the
        // host side must not either).
        EXPECT_EQ(threads_after, threads_before)
            << "thread count scaled with connections — reactor is spawning per connection";
    }

    // The last client may see its handshake a beat before the reactor
    // thread bumps the gauge (send happens first in accept_ready), so the
    // count is eventually-consistent like every other gauge here.
    EXPECT_TRUE(eventually([&] {
        return fixture.reactor().gauges().connections_held >= kIdleConnections + 2;
    })) << "held=" << fixture.reactor().gauges().connections_held;
    GaugeSnapshot gauges = fixture.reactor().gauges();
    EXPECT_EQ(gauges.connections_total, gauges.connections_held);
    EXPECT_EQ(gauges.worker_threads, 2u);

    // Interleaved pipelined traffic among the idle herd, both wire
    // formats, bit-matched against the sequential oracle.
    expect_parity(*f32_session, kSeed, kSeed, split::WireFormat::f32, 12, "soak f32");
    expect_parity(*q8_session, kSeed, kSeed, split::WireFormat::q8, 12, "soak q8");

    gauges = fixture.reactor().gauges();
    EXPECT_EQ(gauges.requests_served, 26u);  // 2 warm-ups + 2 x 12 parity rounds
    EXPECT_EQ(gauges.active_requests, 0u);

    // Closing the herd drains connections_held back down (teardown is
    // event-driven too — EOF per connection, no thread ever blocked).
    idle.clear();
    EXPECT_TRUE(eventually([&] { return fixture.reactor().gauges().connections_held <= 2; }))
        << "reactor did not reap closed connections; held="
        << fixture.reactor().gauges().connections_held;

    f32_session->close();
    q8_session->close();
    fixture.stop();
    EXPECT_EQ(fixture.reactor().gauges().active_requests, 0u);
    EXPECT_EQ(fixture.reactor().gauges().connections_held, 0u);
}

TEST(ReactorSoak, PollBackendServesIdenticalBytes) {
    // Same reactor, portable poll() backend: 64 idle connections plus
    // parity traffic. Proves the fallback is a real backend, not a stub.
    auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
    ReactorConfig config;
    config.worker_threads = 2;
    config.force_poll = true;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::move(manager), config);

    std::vector<std::unique_ptr<split::TcpChannel>> idle;
    for (std::size_t c = 0; c < 64; ++c) {
        auto channel = split::tcp_connect("127.0.0.1", fixture.port());
        channel->set_recv_timeout(std::chrono::seconds(30));
        (void)decode_handshake(channel->recv());
        idle.push_back(std::move(channel));
    }

    ClientHalf client(kSeed);
    auto session = client.connect(fixture.port(), split::WireFormat::f32,
                                  /*max_inflight=*/4);
    expect_parity(*session, kSeed, kSeed, split::WireFormat::f32, 8, "poll backend");
    EXPECT_GE(fixture.reactor().gauges().connections_held, 65u);
    session->close();
}

TEST(ReactorSwap, SessionsPinTheirGenerationAndOldOneRetires) {
    constexpr std::uint64_t kSeedV2 = kSeed + 9000;  // different bodies, same geometry
    auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(manager, config);

    ClientHalf client(kSeed);
    auto old_session = client.connect(fixture.port(), split::WireFormat::f32,
                                      /*max_inflight=*/4);
    ASSERT_EQ(old_session->deployment_version(), 1u);
    expect_parity(*old_session, kSeed, kSeed, split::WireFormat::f32, 4, "pre-swap");

    // Live swap: different weights, same slice. Old session keeps flowing
    // against generation 1 THROUGH the swap.
    EXPECT_EQ(manager->swap(make_ensemble_host(kSeedV2)), 2u);
    EXPECT_EQ(manager->swaps_completed(), 1u);
    EXPECT_EQ(fixture.reactor().gauges().swaps_completed, 1u);
    expect_parity(*old_session, kSeed, kSeed, split::WireFormat::f32, 4, "post-swap pinned");

    // New connections handshake (and bit-match) generation 2.
    auto new_session = client.connect(fixture.port(), split::WireFormat::f32,
                                      /*max_inflight=*/4);
    ASSERT_EQ(new_session->deployment_version(), 2u);
    expect_parity(*new_session, kSeed, kSeedV2, split::WireFormat::f32, 4, "new generation");

    // Both generations are live while the old session exists...
    EXPECT_EQ(manager->live_versions(), (std::vector<std::uint32_t>{1, 2}));

    // ...and generation 1 retires — its bodies actually freed — once its
    // last session closes. Nothing but the session pin was keeping it.
    old_session->close();
    EXPECT_TRUE(eventually(
        [&] { return manager->live_versions() == std::vector<std::uint32_t>{2}; }))
        << "old generation did not retire after its last session closed";

    expect_parity(*new_session, kSeed, kSeedV2, split::WireFormat::f32, 2, "after retirement");
    new_session->close();
}

TEST(ReactorSwap, SwapRefusesAShapeChange) {
    auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
    // A 2-body host cannot replace a 3-body deployment: clients sized
    // their selectors against N = 3.
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, 2, 1);
    auto wrong_shape = std::make_shared<BodyHost>(std::move(parts.bodies));
    try {
        manager->swap(std::move(wrong_shape));
        FAIL() << "shape-changing swap was accepted";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
    }
    EXPECT_EQ(manager->version(), 1u);
    EXPECT_EQ(manager->swaps_completed(), 0u);
}

/// Body layer that parks its next forward once armed — lets a test hold
/// one request in flight at the host deterministically.
struct GateLayer final : nn::Layer {
    nn::Layer* inner = nullptr;
    std::atomic<bool> armed{false};
    std::promise<void> entered;
    std::shared_future<void> release;

    Tensor forward(const Tensor& input) override {
        if (armed.exchange(false)) {
            entered.set_value();
            release.wait();
        }
        return inner->forward(input);
    }
    Tensor backward(const Tensor&) override { return Tensor{}; }
    std::string name() const override { return "Gate"; }
};

TEST(ReactorHostile, HostileFramesDropOnlyTheirConnection) {
    // Body 0 is gated so the duplicate-id case can hold its first request
    // mid-forward: the duplicate is then necessarily detected while the
    // id is in flight.
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, kBodies,
                                                                 /*num_selected=*/2);
    harness::set_eval(parts);
    GateLayer gate;
    gate.inner = parts.bodies[0].get();
    std::promise<void> release;
    gate.release = release.get_future().share();
    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::make_shared<BodyHost>(std::vector<nn::Layer*>{
                               &gate, parts.bodies[1].get(), parts.bodies[2].get()}),
                           config);

    ClientHalf client(kSeed);
    auto sibling = client.connect(fixture.port(), split::WireFormat::f32, /*max_inflight=*/4);

    Rng rng(9);
    const std::string payload =
        split::encode_tensor(Tensor::randn(Shape{1, harness::kHidden}, rng));
    const auto send_request = [&payload](split::TcpChannel& channel, std::uint64_t id) {
        unsigned char tag[kRequestTagBytes];
        encode_request_tag(id, tag);
        channel.send_parts(std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                           payload);
    };
    struct HostileCase {
        const char* name;
        bool gated;  // un-park the gated request once the close is seen
        std::function<void(split::TcpChannel&)> send;
    };
    const std::vector<HostileCase> cases = {
        {"duplicate in-flight id", true,
         [&](split::TcpChannel& channel) {
             gate.armed.store(true);
             send_request(channel, 7);
             gate.entered.get_future().wait();  // request 7 is now mid-forward
             send_request(channel, 7);
         }},
        {"oversize frame header", false,
         [](split::TcpChannel& channel) {
             // One past the reactor's 1 GiB frame bound, written raw: the
             // channel's own framing would never emit it.
             const std::uint64_t size = (std::uint64_t{1} << 30) + 1;
             unsigned char header[8];
             for (int i = 0; i < 8; ++i) {
                 header[i] = static_cast<unsigned char>(size >> (8 * i));
             }
             ASSERT_EQ(::send(channel.fd(), header, sizeof(header), MSG_NOSIGNAL),
                       static_cast<ssize_t>(sizeof(header)));
         }},
        {"request frame shorter than its tag", false,
         [](split::TcpChannel& channel) {
             channel.send(std::string(kRequestTagBytes - 1, '\0'));
         }},
    };

    std::uint64_t hostile = 0;
    for (const HostileCase& hostile_case : cases) {
        auto channel = split::tcp_connect("127.0.0.1", fixture.port());
        channel->set_recv_timeout(std::chrono::seconds(30));
        (void)decode_handshake(channel->recv());
        hostile_case.send(*channel);
        ++hostile;
        // The host refuses by closing the connection — observable here as
        // channel_closed on the next recv.
        try {
            (void)channel->recv();
            ADD_FAILURE() << hostile_case.name << ": host kept the connection open";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::channel_closed) << hostile_case.name << ": "
                                                           << e.what();
        }
        if (hostile_case.gated) {
            release.set_value();
        }
        expect_parity(*sibling, kSeed, kSeed, split::WireFormat::f32, 4, hostile_case.name);
        EXPECT_TRUE(eventually(
            [&] { return fixture.reactor().gauges().connections_dropped == hostile; }))
            << hostile_case.name
            << ": dropped=" << fixture.reactor().gauges().connections_dropped;
    }

    // Clean closes are not drops: the sibling's EOF leaves the count alone.
    sibling->close();
    fixture.stop();
    EXPECT_EQ(fixture.reactor().gauges().connections_dropped, hostile);
    EXPECT_EQ(fixture.reactor().gauges().connections_held, 0u);
}

TEST(ReactorShutdown, SigtermDrainsInFlightWindowsAndExitsZero) {
    // Forked daemon: reactor + SignalSet, the exact serve_daemon layout.
    // The parent SIGTERMs it with a full request window outstanding; every
    // future must still resolve (bit-matched), and the child must exit 0
    // having drained — not died mid-frame.
    harness::ForkedDaemon daemon([](split::ChannelListener& listener) {
        SignalSet signals{SIGTERM};  // before ANY thread spawns
        auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
        ReactorConfig config;
        config.worker_threads = 2;
        ReactorHost reactor(manager, config);
        std::thread loop([&] { reactor.run(listener); });
        (void)signals.wait();
        reactor.shutdown();
        loop.join();
        if (reactor.gauges().active_requests != 0) {
            ::_exit(3);  // drain left work behind
        }
    });
    ASSERT_GT(daemon.port(), 0);

    ClientHalf client(kSeed);
    auto session = client.connect(daemon.port(), split::WireFormat::f32,
                                  /*max_inflight=*/4);
    ASSERT_EQ(session->deployment_version(), 1u);

    Oracle oracle(kSeed, kSeed, split::WireFormat::f32);
    Rng data_rng(77);
    std::vector<Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < 4; ++r) {
        inputs.push_back(Tensor::randn(Shape{2, harness::kIn}, data_rng));
        futures.push_back(session->submit(inputs.back()));
    }
    // SIGTERM with the whole window in flight.
    ASSERT_EQ(::kill(daemon.pid(), SIGTERM), 0);

    for (std::size_t r = 0; r < futures.size(); ++r) {
        std::optional<InferenceResult> result;
        try {
            result.emplace(futures[r].get());
        } catch (const std::exception& e) {
            FAIL() << "request " << r << " torn by the shutdown: " << e.what();
        }
        const Tensor expected = oracle.session->infer(inputs[r]);
        EXPECT_EQ(result->logits.to_vector(), expected.to_vector()) << "request " << r;
    }
    session->close();
    EXPECT_EQ(daemon.wait_exit_code(), 0) << "daemon did not exit cleanly after the drain";
}

}  // namespace
}  // namespace ens::serve
