// serve_overload — the event-driven host under CONNECTION pressure. A
// single ReactorHost (fixed worker pool) holds a sweep of idle-connection
// herds while one pipelined session runs traffic through it —
// connections-held vs p50/p99 is the curve that says whether held
// sessions are actually free. Rows land in BENCH_overload.json
// (bench::JsonRows) as the machine-readable trajectory CI smoke-checks and
// future PRs regress against.

#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/selector.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "serve/deployment.hpp"
#include "serve/pipeline.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "split/tcp_channel.hpp"

namespace {

using namespace ens;

// ---- reactor connection sweep -------------------------------------------

constexpr std::int64_t kReactorIn = 24;
constexpr std::int64_t kReactorFeature = 96;
constexpr std::size_t kReactorBodies = 2;
constexpr std::size_t kReactorWorkers = 2;
constexpr std::size_t kReactorInflight = 8;

/// Tiny wire-bound ensemble (same geometry as bench_serve_throughput's
/// remote section): the cost under measurement is the host's event loop,
/// not body compute.
struct ReactorParts {
    std::unique_ptr<nn::Sequential> head;
    std::vector<nn::LayerPtr> bodies;
    std::unique_ptr<nn::Sequential> tail;
};

ReactorParts make_reactor_parts(std::uint64_t seed) {
    ReactorParts parts;
    Rng head_rng(seed);
    parts.head = std::make_unique<nn::Sequential>();
    parts.head->emplace<nn::Linear>(kReactorIn, kReactorFeature, head_rng);
    parts.head->set_training(false);
    for (std::size_t k = 0; k < kReactorBodies; ++k) {
        Rng body_rng(seed + 1 + k);
        auto body = std::make_unique<nn::Sequential>();
        body->emplace<nn::Linear>(kReactorFeature, kReactorFeature, body_rng);
        body->set_training(false);
        parts.bodies.push_back(std::move(body));
    }
    Rng tail_rng(seed + 100);
    parts.tail = std::make_unique<nn::Sequential>();
    parts.tail->emplace<nn::Linear>(static_cast<std::int64_t>(kReactorBodies) * kReactorFeature,
                                    10, tail_rng);
    parts.tail->set_training(false);
    return parts;
}

struct ReactorRow {
    std::size_t connections = 0;  // held alongside the measured session
    double requests_per_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

/// One sweep point: a fresh ReactorHost holds `connections` fully
/// handshaken idle connections while one pipelined session pushes
/// `requests` requests through the fixed worker pool.
ReactorRow run_reactor_point(std::size_t connections, std::size_t requests) {
    constexpr std::uint64_t kSeed = 9091;

    ReactorParts host_parts = make_reactor_parts(kSeed);
    auto manager = std::make_shared<serve::DeploymentManager>(
        std::make_shared<serve::BodyHost>(std::move(host_parts.bodies)));
    serve::ReactorConfig config;
    config.worker_threads = kReactorWorkers;
    config.drain_grace = std::chrono::milliseconds(20);
    serve::ReactorHost reactor(manager, config);
    split::ChannelListener listener(0);
    std::thread loop([&] { reactor.run(listener); });

    ReactorRow row;
    row.connections = connections;
    {
        // The idle herd, each fully handshaken (registered with the
        // reactor, not parked in the accept backlog).
        std::vector<std::unique_ptr<split::TcpChannel>> idle;
        idle.reserve(connections);
        for (std::size_t c = 0; c < connections; ++c) {
            auto channel = split::tcp_connect("127.0.0.1", listener.port());
            channel->set_recv_timeout(std::chrono::seconds(30));
            (void)channel->recv();  // the v4 handshake
            idle.push_back(std::move(channel));
        }

        ReactorParts client_parts = make_reactor_parts(kSeed);
        std::vector<std::size_t> all(kReactorBodies);
        for (std::size_t i = 0; i < all.size(); ++i) {
            all[i] = i;
        }
        serve::RemoteSession session(split::tcp_connect("127.0.0.1", listener.port()),
                                     *client_parts.head, nullptr, *client_parts.tail,
                                     core::Selector(kReactorBodies, std::move(all)),
                                     split::WireFormat::f32, std::chrono::seconds(30),
                                     kReactorInflight);
        session.set_recv_timeout(std::chrono::seconds(120));

        Rng data_rng(17);
        const Tensor input = Tensor::uniform(Shape{1, kReactorIn}, data_rng, 0.0f, 1.0f);
        for (std::size_t r = 0; r < 8; ++r) {  // warm-up: scratch + pools
            (void)session.infer(input);
        }
        const Stopwatch wall;
        serve::FutureWindow window(session.window());
        for (std::size_t r = 0; r < requests; ++r) {
            (void)window.push(session.submit(input));
        }
        while (!window.empty()) {
            (void)window.pop();
        }
        const double seconds = wall.elapsed_seconds();
        row.requests_per_s = static_cast<double>(requests) / (seconds > 0 ? seconds : 1e-9);
        const serve::LatencySummary latency = session.stats().latency();
        row.p50_ms = latency.p50_ms;
        row.p99_ms = latency.p99_ms;
        session.close();
    }
    reactor.shutdown();
    loop.join();
    return row;
}

/// Best-effort fd headroom for the big sweep points; returns the soft
/// limit actually in force.
rlim_t raise_fd_limit(rlim_t need) {
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

}  // namespace

int main() {
    const bench::Scale scale = bench::current_scale();
    // ---- reactor: connections-held vs latency ----
    std::vector<std::size_t> herd_sizes;
    std::size_t reactor_requests = 0;
    switch (scale) {
        case bench::Scale::kTiny:
            herd_sizes = {8, 64};
            reactor_requests = 64;
            break;
        case bench::Scale::kSmall:
            herd_sizes = {64, 256, 1024};
            reactor_requests = 256;
            break;
        default:
            herd_sizes = {64, 512, 2048};
            reactor_requests = 1024;
            break;
    }
    const rlim_t fd_limit = raise_fd_limit(herd_sizes.back() + 256);
    while (!herd_sizes.empty() && fd_limit != 0 && herd_sizes.back() + 128 > fd_limit) {
        std::printf("\n(dropping %zu-connection sweep point: RLIMIT_NOFILE=%llu)\n",
                    herd_sizes.back(), static_cast<unsigned long long>(fd_limit));
        herd_sizes.pop_back();
    }

    std::printf("\n# reactor host: %zu workers, one pipelined session (window %zu, %zu "
                "requests) among an idle herd — connections held must not move the tail\n\n",
                kReactorWorkers, kReactorInflight, reactor_requests);
    std::printf("| connections | workers | req/s | p50 ms | p99 ms |\n");
    bench::print_rule(5);

    bench::JsonRows trajectory("serve_overload");
    trajectory.meta("section", "reactor_connection_sweep");
    trajectory.meta("bodies", static_cast<double>(kReactorBodies));
    trajectory.meta("requests", static_cast<double>(reactor_requests));
    for (const std::size_t herd : herd_sizes) {
        const ReactorRow row = run_reactor_point(herd, reactor_requests);
        std::printf("| %zu | %zu | %8.0f | %6.3f | %6.3f |\n", row.connections + 1,
                    kReactorWorkers, row.requests_per_s, row.p50_ms, row.p99_ms);
        trajectory.row()
            .field("connections", row.connections + 1)
            .field("workers", kReactorWorkers)
            .field("requests_per_s", row.requests_per_s)
            .field("p50_ms", row.p50_ms)
            .field("p99_ms", row.p99_ms);
    }
    trajectory.write("BENCH_overload.json");

    std::printf("\n(expected shape: req/s and p99 stay roughly flat as the idle herd grows — "
                "held connections cost the reactor a table entry, not a thread)\n");
    return 0;
}
