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
//   - Version pinning: an in-process DeploymentManager swap leaves an
//     already-connected session bit-matching the OLD generation while new
//     connections handshake (and bit-match) the new one; the old
//     generation retires (live_versions shrinks) once its last session
//     closes.
//   - Hostile frames: a duplicate in-flight request id, a frame header
//     past the frame-size bound, a request frame too short for its tag and
//     a payload that does not decode each close ONLY their own connection
//     (counted in connections_dropped) while a sibling session stays
//     bit-exact.
//   - Body concurrency: the reactor schedules (request, body) work items,
//     so the bodies of ONE window-1 request run on different workers at
//     once (two bodies rendezvous inside their forwards), and a body that
//     throws mid-request drops only its connection, exactly once, without
//     counting the request as served.
//
//   - Poller slots: closing the first, a middle and the last of eight
//     pipelined connections (the persistent pollfd array swap-removes
//     their slots) leaves every survivor and a fresh connection bit-exact.
//   - Graceful shutdown: the exec'd serve_daemon, SIGTERMed with a window
//     of requests in flight, answers every one of them (no torn replies),
//     then exits 0.
//
// Bit-parity oracle: the same in-proc sequential CollaborativeSession the
// other serve suites compare against.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "daemon_harness.hpp"
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

using namespace harness;

constexpr std::size_t kBodies = 3;
constexpr std::uint64_t kSeed = 4100;
constexpr std::chrono::milliseconds kRequestTimeout{120000};

/// The selector is {0, bodies - 1} of `bodies` ({0, 2} of the default 3).
core::Selector selector_for(std::size_t bodies) {
    return core::Selector(bodies, {0, bodies - 1});
}

/// In-memory whole-deployment host over the shared deterministic ensemble
/// geometry (same seed -> bit-identical bodies everywhere).
std::shared_ptr<BodyHost> make_ensemble_host(std::uint64_t seed) {
    EnsembleParts parts = make_linear_ensemble(seed, kBodies, /*num_selected=*/2);
    return std::make_shared<BodyHost>(std::move(parts.bodies));
}

/// The sequential in-proc oracle. The client half (head/tail) and the body
/// weights may come from DIFFERENT seeds: a hot swap replaces only the
/// host's bodies, so a post-swap session is client seed + NEW body seed.
struct Oracle {
    EnsembleParts client_parts;
    EnsembleParts body_parts;
    core::Selector selector;
    split::InProcChannel uplink;
    split::InProcChannel downlink;
    std::unique_ptr<split::CollaborativeSession> session;

    Oracle(std::uint64_t client_seed, std::uint64_t body_seed, split::WireFormat wire,
           std::size_t bodies = kBodies)
        : client_parts(make_linear_ensemble(client_seed, bodies, /*num_selected=*/2)),
          body_parts(make_linear_ensemble(body_seed, bodies, /*num_selected=*/2)),
          selector(selector_for(bodies)) {
        set_eval(client_parts);
        set_eval(body_parts);
        std::vector<nn::Layer*> body_layers;
        for (nn::LayerPtr& body : body_parts.bodies) {
            body_layers.push_back(body.get());
        }
        session = std::make_unique<split::CollaborativeSession>(
            *client_parts.head, body_layers, *client_parts.tail,
            [this](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink, downlink, wire);
    }
};

/// Client half for a RemoteSession against a `bodies`-body host of `seed`.
struct ClientHalf {
    EnsembleParts parts;
    core::Selector selector;

    explicit ClientHalf(std::uint64_t seed, std::size_t bodies = kBodies)
        : parts(make_linear_ensemble(seed, bodies, /*num_selected=*/2)),
          selector(selector_for(bodies)) {
        set_eval(parts);
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

/// Sends one tagged request frame on a raw connection.
void send_request(split::TcpChannel& channel, std::uint64_t id, const std::string& payload) {
    unsigned char tag[kRequestTagBytes];
    encode_request_tag(id, tag);
    channel.send_parts(std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                       payload);
}

/// Reads `channel` until the host closes it (channel_closed). Bodies are
/// separate work items, so before the close up to kBodies - 1 replies to
/// request `id` may arrive from bodies other than `silent_body` when
/// `replies_allowed`; any other frame fails.
void expect_close(split::TcpChannel& channel, bool replies_allowed, std::uint64_t id,
                  std::uint32_t silent_body, const char* what) {
    std::size_t replies = 0;
    for (;;) {
        std::string frame;
        try {
            frame = channel.recv();
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::channel_closed) << what << ": " << e.what();
            return;
        }
        std::string_view payload;
        const ReplyTag tag = parse_reply_frame(frame, payload);
        if (!replies_allowed || tag.request_id != id || tag.body_seq == silent_body ||
            ++replies > kBodies - 1) {
            ADD_FAILURE() << what << ": host kept the connection open (reply "
                          << tag.request_id << "/" << tag.body_seq << ")";
            return;
        }
    }
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

    // A worker settles the gauges after it sends a request's last reply,
    // so the client can hold every answer a beat before the count moves.
    EXPECT_TRUE(eventually([&] {
        const GaugeSnapshot settled = fixture.reactor().gauges();
        return settled.requests_served == 26u && settled.active_requests == 0u;
    }));
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
    struct HostileCase {
        const char* name;
        bool gated;  // un-park the gated request once the close is seen
        std::function<void(split::TcpChannel&)> send;
    };
    const std::vector<HostileCase> cases = {
        {"duplicate in-flight id", true,
         [&](split::TcpChannel& channel) {
             gate.armed.store(true);
             send_request(channel, 7, payload);
             gate.entered.get_future().wait();  // request 7 is now mid-forward
             send_request(channel, 7, payload);
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
        {"payload that fails to decode", false,
         [](split::TcpChannel& channel) {
             // A well-formed tag; the workers' decode refuses the bytes.
             send_request(channel, 9, "not a tensor");
         }},
    };

    std::uint64_t hostile = 0;
    for (const HostileCase& hostile_case : cases) {
        auto channel = split::tcp_connect("127.0.0.1", fixture.port());
        channel->set_recv_timeout(std::chrono::seconds(30));
        (void)decode_handshake(channel->recv());
        hostile_case.send(*channel);
        ++hostile;
        // The host refuses by closing the connection. The gated request's
        // other bodies may reply while body 0 is parked.
        expect_close(*channel, hostile_case.gated, 7, /*silent_body=*/0, hostile_case.name);
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

/// Meeting point for the bodies of one request: each RendezvousLayer's
/// forward waits (bounded) until every party has entered.
struct Rendezvous {
    std::size_t parties = 0;
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t entered = 0;
};

/// Body layer that records whether its forward met the other parties of
/// its Rendezvous. A serial host times out (met stays false), since the
/// other bodies only start after this forward returns.
struct RendezvousLayer final : nn::Layer {
    nn::Layer* inner = nullptr;
    Rendezvous* meeting = nullptr;
    std::atomic<bool> met{false};

    Tensor forward(const Tensor& input) override {
        {
            std::unique_lock<std::mutex> lock(meeting->mutex);
            ++meeting->entered;
            meeting->cv.notify_all();
            met.store(meeting->cv.wait_for(lock, std::chrono::seconds(5), [this] {
                return meeting->entered >= meeting->parties;
            }));
        }
        return inner->forward(input);
    }
    Tensor backward(const Tensor&) override { return Tensor{}; }
    std::string name() const override { return "Rendezvous"; }
};

TEST(ReactorBodies, OneRequestsBodiesRunConcurrentlyAcrossWorkers) {
    // Two bodies, two workers, ONE request in flight (window 1): only
    // (request, body) scheduling can put both forwards in flight together.
    constexpr std::size_t kPair = 2;
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, kPair,
                                                                 /*num_selected=*/2);
    harness::set_eval(parts);
    Rendezvous meeting;
    meeting.parties = kPair;
    RendezvousLayer first;
    RendezvousLayer second;
    first.inner = parts.bodies[0].get();
    second.inner = parts.bodies[1].get();
    first.meeting = second.meeting = &meeting;
    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::make_shared<BodyHost>(std::vector<nn::Layer*>{&first, &second}),
                           config);

    ClientHalf client(kSeed, kPair);
    auto session = client.connect(fixture.port(), split::WireFormat::f32, /*max_inflight=*/1);
    Oracle oracle(kSeed, kSeed, split::WireFormat::f32, kPair);
    Rng rng(21);
    const Tensor input = Tensor::randn(Shape{2, harness::kIn}, rng);
    const InferenceResult result = session->infer(input);

    EXPECT_TRUE(first.met.load()) << "body 0 never saw body 1 enter: bodies ran one by one";
    EXPECT_TRUE(second.met.load()) << "body 1 never saw body 0 enter";
    EXPECT_EQ(result.logits.to_vector(), oracle.session->infer(input).to_vector());
    session->close();
    fixture.stop();
    EXPECT_EQ(fixture.reactor().gauges().requests_served, 1u);
}

/// Body layer that throws from its next forward once armed.
struct ThrowLayer final : nn::Layer {
    nn::Layer* inner = nullptr;
    std::atomic<bool> armed{false};

    Tensor forward(const Tensor& input) override {
        if (armed.exchange(false)) {
            throw std::runtime_error("injected body failure");
        }
        return inner->forward(input);
    }
    Tensor backward(const Tensor&) override { return Tensor{}; }
    std::string name() const override { return "Throw"; }
};

TEST(ReactorBodies, BodyFailureMidRequestDropsOnlyItsConnectionOnce) {
    // Body 1 of 3 throws while its siblings of the same request run on the
    // other worker: the connection drops exactly once, the request is not
    // served, and the gauges settle.
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, kBodies,
                                                                 /*num_selected=*/2);
    harness::set_eval(parts);
    ThrowLayer thrower;
    thrower.inner = parts.bodies[1].get();
    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::make_shared<BodyHost>(std::vector<nn::Layer*>{
                               parts.bodies[0].get(), &thrower, parts.bodies[2].get()}),
                           config);

    ClientHalf client(kSeed);
    auto sibling = client.connect(fixture.port(), split::WireFormat::f32, /*max_inflight=*/4);
    expect_parity(*sibling, kSeed, kSeed, split::WireFormat::f32, 4, "before the failure");
    // A request counts once its last reply is sent, a beat after the
    // client may have read it.
    EXPECT_TRUE(eventually([&] { return fixture.reactor().gauges().requests_served == 4; }));

    auto channel = split::tcp_connect("127.0.0.1", fixture.port());
    channel->set_recv_timeout(std::chrono::seconds(30));
    (void)decode_handshake(channel->recv());
    Rng rng(5);
    const std::string payload =
        split::encode_tensor(Tensor::randn(Shape{1, harness::kHidden}, rng));
    thrower.armed.store(true);
    send_request(*channel, 3, payload);
    // Bodies 0 and 2 may reply before the teardown; body 1 never does.
    expect_close(*channel, /*replies_allowed=*/true, 3, /*silent_body=*/1, "body failure");

    EXPECT_TRUE(eventually([&] {
        const GaugeSnapshot gauges = fixture.reactor().gauges();
        return gauges.connections_dropped == 1 && gauges.active_requests == 0;
    })) << "dropped=" << fixture.reactor().gauges().connections_dropped
        << " active=" << fixture.reactor().gauges().active_requests;
    EXPECT_EQ(fixture.reactor().gauges().requests_served, 4u) << "the failed request was served";

    expect_parity(*sibling, kSeed, kSeed, split::WireFormat::f32, 4, "after the failure");
    sibling->close();
    fixture.stop();
    const GaugeSnapshot gauges = fixture.reactor().gauges();
    EXPECT_EQ(gauges.connections_dropped, 1u);
    EXPECT_EQ(gauges.active_requests, 0u);
    EXPECT_EQ(gauges.requests_served, 8u);
}

TEST(ReactorPoller, ClosingFirstMiddleAndLastConnectionsKeepsTheRestServing) {
    // The poller keeps one pollfd slot per connection and swap-removes a
    // closed one: the last slot moves into the hole. Close the first, a
    // middle and the last of eight pipelined sessions, so survivors sit in
    // moved slots; each of them, and a fresh connection, must still serve
    // bit-exact.
    constexpr std::size_t kSessions = 8;
    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(make_ensemble_host(kSeed), config);

    ClientHalf client(kSeed);
    std::vector<std::unique_ptr<RemoteSession>> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
        sessions.push_back(client.connect(fixture.port(), split::WireFormat::f32,
                                          /*max_inflight=*/4));
        expect_parity(*sessions.back(), kSeed, kSeed, split::WireFormat::f32, 2, "before");
    }
    for (const std::size_t closed : {std::size_t{0}, kSessions / 2, kSessions - 1}) {
        sessions[closed]->close();
        sessions[closed].reset();
    }
    EXPECT_TRUE(eventually([&] { return fixture.reactor().gauges().connections_held == 5; }))
        << "held=" << fixture.reactor().gauges().connections_held;

    for (std::size_t s = 0; s < kSessions; ++s) {
        if (sessions[s] != nullptr) {
            expect_parity(*sessions[s], kSeed, kSeed, split::WireFormat::f32, 4, "survivor");
            sessions[s]->close();
        }
    }
    auto fresh = client.connect(fixture.port(), split::WireFormat::f32, /*max_inflight=*/4);
    expect_parity(*fresh, kSeed, kSeed, split::WireFormat::f32, 4, "fresh connection");
    fresh->close();
}

TEST(ReactorShutdown, SigtermDrainsInFlightWindowsAndExitsZero) {
    // The exec'd serve_daemon, SIGTERMed with a full request window
    // outstanding: every future must still resolve (bit-matched), and the
    // daemon must exit 0 having drained — not died mid-frame.
    ClientHalf client(kSeed);
    const std::string dir = bundle_dir_for("reactor_drain");
    save_generation(dir, client.parts, client.parts, client.selector);
    const auto daemon = exec_daemon(dir);

    // The completed handshake also proves the daemon's signal handling is
    // in place: it blocks SIGTERM before its reactor starts.
    auto session = client.connect(daemon->wait_for_port(kDaemonBoot), split::WireFormat::f32,
                                  /*max_inflight=*/4);
    ASSERT_EQ(session->deployment_version(), 1u);

    Oracle oracle(kSeed, kSeed, split::WireFormat::f32);
    Rng data_rng(77);
    std::vector<Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < 4; ++r) {
        inputs.push_back(Tensor::randn(Shape{2, kIn}, data_rng));
        futures.push_back(session->submit(inputs.back()));
    }
    // SIGTERM with the whole window in flight.
    ASSERT_EQ(::kill(daemon->pid(), SIGTERM), 0);

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
    EXPECT_EQ(daemon->stop(), 0) << "daemon did not exit cleanly after the drain";
}

}  // namespace
}  // namespace ens::serve
