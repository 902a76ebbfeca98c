// serve_failover — the latency cost of replica failover, measured as a
// three-phase trajectory through one replicated shard deployment:
//   steady    - R = 2 healthy replicas, pipelined window: the baseline
//   kill      - one replica dies mid-phase (a split::FaultChannel
//               close_hard at an exact request index — deterministic, no
//               signals), its in-flight requests replay on the survivor:
//               the phase's p99 carries the failover bump, req/s the
//               degraded-capacity dip, and failovers counts the replays
//   recovered - reconnect_shard() restores R = 2: the numbers must return
//               to the steady baseline (failover is a transient, not a
//               permanent tax)
// Rows land in BENCH_failover.json (bench::JsonRows) as the
// machine-readable trajectory CI smoke-checks and future PRs regress
// against.
//
// Both replicas are in-process reactor hosts behind real TCP listeners:
// the wire, framing and demux costs are genuine; only the process
// boundary is elided (killing a real serve_daemon process is exercised
// by tests/serve/failover_test.cpp, where bit-parity is asserted).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "../tests/serve/serve_harness.hpp"
#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/selector.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "serve/remote.hpp"
#include "serve/retry.hpp"
#include "serve/shard_router.hpp"
#include "split/fault_channel.hpp"
#include "split/tcp_channel.hpp"

namespace {

using namespace ens;

constexpr std::int64_t kIn = 24;
constexpr std::int64_t kFeature = 96;
constexpr std::size_t kBodies = 2;    // one shard hosting both bodies
constexpr std::size_t kReplicas = 2;  // R
constexpr std::size_t kWarmup = 8;
constexpr std::uint64_t kSeed = 7100;

struct Parts {
    std::unique_ptr<nn::Sequential> head;
    std::vector<nn::LayerPtr> bodies;
    std::unique_ptr<nn::Sequential> tail;
};

Parts make_parts(std::uint64_t seed) {
    Parts parts;
    Rng head_rng(seed);
    parts.head = std::make_unique<nn::Sequential>();
    parts.head->emplace<nn::Linear>(kIn, kFeature, head_rng);
    parts.head->set_training(false);
    for (std::size_t k = 0; k < kBodies; ++k) {
        Rng body_rng(seed + 1 + k);
        auto body = std::make_unique<nn::Sequential>();
        body->emplace<nn::Linear>(kFeature, kFeature, body_rng);
        body->set_training(false);
        parts.bodies.push_back(std::move(body));
    }
    Rng tail_rng(seed + 100);
    parts.tail = std::make_unique<nn::Sequential>();
    parts.tail->emplace<nn::Linear>(static_cast<std::int64_t>(kBodies) * kFeature, 10, tail_rng);
    parts.tail->set_training(false);
    return parts;
}

double percentile(std::vector<double> sorted_ms, double q) {
    if (sorted_ms.empty()) {
        return 0.0;
    }
    std::sort(sorted_ms.begin(), sorted_ms.end());
    const std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(sorted_ms.size()));
    return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

struct PhaseRow {
    const char* phase = "";
    double requests_per_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::uint64_t failovers = 0;  // replays that happened DURING this phase
};

/// Runs `requests` pipelined submissions and distills the phase row.
PhaseRow run_phase(serve::ShardRouter& router, const char* phase, const Tensor& input,
                   std::size_t requests) {
    const std::uint64_t failovers_before = router.failovers_total();
    std::vector<double> total_ms;
    total_ms.reserve(requests);
    const Stopwatch wall;
    serve::FutureWindow window(router.window());
    for (std::size_t r = 0; r < requests; ++r) {
        if (const auto done = window.push(router.submit(input))) {
            total_ms.push_back(done->total_ms);
        }
    }
    while (!window.empty()) {
        total_ms.push_back(window.pop().total_ms);
    }
    const double seconds = wall.elapsed_seconds();

    PhaseRow row;
    row.phase = phase;
    row.requests_per_s = static_cast<double>(requests) / (seconds > 0 ? seconds : 1e-9);
    row.p50_ms = percentile(total_ms, 0.50);
    row.p99_ms = percentile(total_ms, 0.99);
    row.failovers = router.failovers_total() - failovers_before;
    return row;
}

}  // namespace

int main() {
    const bench::Scale scale = bench::current_scale();
    const std::size_t requests =
        scale == bench::Scale::kTiny ? 64 : (scale == bench::Scale::kSmall ? 256 : 1024);

    // Each replica: a real BodyHost served by a reactor behind a real TCP
    // listener, one compute thread per window slot. Replica B serves two
    // connections — its first stream is the one the fault script kills,
    // its second is the recovered-phase reconnect.
    serve::ReactorConfig config;
    config.worker_threads = serve::kDefaultMaxInflight;
    const auto make_replica = [&config] {
        Parts parts = make_parts(kSeed);
        return serve::harness::ReactorFixture(
            std::make_shared<serve::BodyHost>(std::move(parts.bodies)), config);
    };
    serve::harness::ReactorFixture host_a = make_replica();
    serve::harness::ReactorFixture host_b = make_replica();

    // Round-robin hands replica B every second request, so its k-th send is
    // request 2k + 1: aiming the close_hard at B's share of (warmup +
    // steady + half the kill phase) lands the death mid-kill-phase with
    // requests of the depth-window in flight on the dying stream.
    const std::size_t die_at = (kWarmup + requests + requests / 2) / 2;
    split::FaultAction die;
    die.kind = split::FaultAction::Kind::close_hard;
    die.direction = split::FaultAction::Direction::send;
    die.at = die_at;

    Parts client = make_parts(kSeed);
    std::vector<std::size_t> all(kBodies);
    for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = i;
    }
    std::vector<std::vector<std::unique_ptr<split::Channel>>> groups;
    groups.emplace_back();
    groups.back().push_back(split::tcp_connect("127.0.0.1", host_a.port()));
    groups.back().push_back(std::make_unique<split::FaultChannel>(
        split::tcp_connect("127.0.0.1", host_b.port()),
        std::vector<split::FaultAction>{die}));

    serve::RetryPolicy retry;
    serve::ShardRouter router(std::move(groups), *client.head, nullptr, *client.tail,
                              core::Selector(kBodies, std::move(all)), split::WireFormat::f32,
                              retry);
    router.set_recv_timeout(std::chrono::seconds(60));

    std::printf("# serve failover: 1 shard x %zu bodies behind %zu replicas, window %zu, "
                "%zu requests per phase, replica death at its request %zu (scale=%s)\n\n",
                kBodies, kReplicas, router.window(), requests, die_at,
                bench::scale_name(scale));

    Rng data_rng(17);
    const Tensor input = Tensor::uniform(Shape{1, kIn}, data_rng, 0.0f, 1.0f);
    for (std::size_t r = 0; r < kWarmup; ++r) {
        (void)router.infer(input);
    }

    std::vector<PhaseRow> rows;
    rows.push_back(run_phase(router, "steady", input, requests));
    rows.push_back(run_phase(router, "kill", input, requests));
    router.reconnect_shard(0, split::tcp_connect("127.0.0.1", host_b.port()));
    rows.push_back(run_phase(router, "recovered", input, requests));

    std::printf("| phase | req/s | p50 ms | p99 ms | failovers |\n");
    bench::print_rule(5);
    bench::JsonRows trajectory("serve_failover");
    trajectory.meta("bodies", static_cast<double>(kBodies));
    trajectory.meta("replicas", static_cast<double>(kReplicas));
    trajectory.meta("requests_per_phase", static_cast<double>(requests));
    for (const PhaseRow& row : rows) {
        std::printf("| %s | %8.0f | %6.3f | %6.3f | %llu |\n", row.phase, row.requests_per_s,
                    row.p50_ms, row.p99_ms, static_cast<unsigned long long>(row.failovers));
        trajectory.row()
            .field("phase", std::string(row.phase))
            .field("requests_per_s", row.requests_per_s)
            .field("p50_ms", row.p50_ms)
            .field("p99_ms", row.p99_ms)
            .field("failovers", static_cast<std::size_t>(row.failovers));
    }
    trajectory.write("BENCH_failover.json");

    std::printf("\n(expected shape: the kill row shows failovers >= 1 and a p99 bump from the "
                "replayed window; the recovered row returns to the steady row's req/s and "
                "tail — failover is a transient, not a permanent tax)\n");

    router.close();
    return 0;
}
