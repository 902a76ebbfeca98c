// Ablation: multiparty (multi-server) deployment of the N = 10 ensemble,
// §III-D — "the proposed framework is friendly to parallel execution and
// even multiparty (multi-server) inference".
//
// For K servers holding round-robin shards of the 10 bodies this bench
// reports, per K,
//   * the Table III cost model with the shard width as the effective
//     stream count (the slowest shard gates server time),
//   * measured per-server wire traffic for one real batched round trip at
//     bench scale (every message crosses the codec),
//   * the security ledger: the largest per-server brute-force search
//     space (2^shard - 1), the minimum coalition that covers the client's
//     secret selection, and whether any single server can mount even a
//     Proposition-1 attack (holds >= 1 selected body),
//   * and a MEASURED serve::ShardRouter fan-out over real loopback TCP:
//     K BodyHost shard endpoints (contiguous blocks of the 10 bodies),
//     one socket per shard, concurrent request fan-out + global-order
//     merge — the wire-level cost of the multiparty deployment as a
//     function of K, including the per-shard straggler spread.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>

#include "../tests/serve/serve_harness.hpp"
#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/ensembler.hpp"
#include "latency/estimator.hpp"
#include "latency/profiles.hpp"
#include "serve/remote.hpp"
#include "serve/service.hpp"
#include "serve/shard_router.hpp"
#include "split/multiparty.hpp"
#include "split/split_model.hpp"
#include "split/tcp_channel.hpp"

int main() {
    using namespace ens;
    const bench::Scale scale = bench::current_scale();
    std::printf("# Ablation: multiparty deployment of the N=10 ensemble (scale=%s)\n\n",
                bench::scale_name(scale));

    // Cost model at paper width (Table III conditions).
    nn::ResNetConfig paper_arch;
    paper_arch.base_width = 64;
    paper_arch.image_size = 32;
    paper_arch.num_classes = 10;
    Rng rng(1);
    split::SplitModel parts = split::build_split_resnet18(paper_arch, rng);
    latency::PipelineSpec spec;
    spec.client_head = parts.head.get();
    spec.server_body = parts.body.get();
    spec.client_tail = parts.tail.get();
    spec.input_shape = Shape{128, 3, 32, 32};
    spec.tail_input_width = 4 * nn::resnet18_feature_width(paper_arch);
    const auto edge = latency::raspberry_pi_profile();
    const auto link = latency::wired_lan_profile();

    // Small trained ensemble for the measured-traffic column.
    bench::Scenario scenario = bench::make_cifar10(bench::Scale::kTiny);
    core::EnsemblerConfig config = bench::ensembler_config(bench::Scale::kTiny, /*p=*/4);
    config.num_networks = 10;
    core::Ensembler ensembler(scenario.arch, config);
    ensembler.fit(*scenario.train);
    const core::Selector& selector = ensembler.selector();

    std::vector<nn::Layer*> bodies;
    for (std::size_t i = 0; i < 10; ++i) {
        bodies.push_back(&ensembler.member_body(i));
    }
    struct TransmitLayer final : nn::Layer {
        core::Ensembler* owner = nullptr;
        Tensor forward(const Tensor& x) override {
            return owner->client_noise().forward(owner->client_head().forward(x));
        }
        Tensor backward(const Tensor&) override { return Tensor{}; }
        std::string name() const override { return "ClientTransmit"; }
    };
    TransmitLayer transmit;
    transmit.owner = &ensembler;
    const split::Combiner combiner = [&selector](const std::vector<Tensor>& features) {
        return selector.apply(features);
    };
    // K in-process shard hosts over contiguous blocks of `width` bodies (so
    // the slices tile [0, 10)), each a reactor with `workers` compute
    // threads behind its own loopback listener.
    const auto serve_shards = [&bodies](std::size_t shard_count, std::size_t width,
                                        std::size_t workers) {
        std::vector<std::unique_ptr<serve::harness::ReactorFixture>> hosts;
        for (std::size_t s = 0; s < shard_count; ++s) {
            const std::size_t begin = s * width;
            const std::size_t end = std::min(bodies.size(), begin + width);
            auto host = std::make_shared<serve::BodyHost>(
                std::vector<nn::Layer*>(bodies.begin() + begin, bodies.begin() + end));
            host->set_shard(begin, bodies.size());
            serve::ReactorConfig config;
            config.worker_threads = workers;
            hosts.push_back(
                std::make_unique<serve::harness::ReactorFixture>(std::move(host), config));
        }
        return hosts;
    };
    const auto connect_shards =
        [](const std::vector<std::unique_ptr<serve::harness::ReactorFixture>>& hosts) {
            std::vector<std::unique_ptr<split::Channel>> channels;
            for (const auto& host : hosts) {
                channels.push_back(split::tcp_connect("127.0.0.1", host->port()));
            }
            return channels;
        };

    std::printf("| K servers | server s (model) | total s (model) | max per-server bytes "
                "(measured) | max shard 2^b-1 | min covering coalition | any single server can "
                "attack |\n");
    bench::print_rule(7);

    for (const std::size_t servers : {1u, 2u, 5u, 10u}) {
        // Each server runs its shard concurrently with the others; within a
        // server the shard's bodies share that machine's streams. Model it
        // by charging ceil(10/K) bodies at the cloud profile.
        auto cloud = latency::a6000_profile();
        latency::PipelineSpec shard_spec = spec;
        shard_spec.num_server_nets =
            (10 + servers - 1) / servers;  // slowest shard width
        const latency::LatencyBreakdown cost =
            latency::estimate_latency(shard_spec, edge, cloud, link);

        const split::ShardPlan plan = split::ShardPlan::round_robin(10, servers);
        split::MultipartyDeployment deployment(transmit, bodies, ensembler.client_tail(),
                                               selector.indices(), combiner, plan);
        const data::Batch batch = data::materialize(*scenario.test, 0, 16);
        (void)deployment.infer(batch.images);

        std::uint64_t max_bytes = 0;
        std::uint64_t max_subsets = 0;
        bool any_single_attack = false;
        for (std::size_t server = 0; server < servers; ++server) {
            const auto traffic = deployment.traffic()[server];
            max_bytes = std::max(max_bytes, traffic.uplink.bytes + traffic.downlink.bytes);
            max_subsets = std::max(max_subsets, deployment.coalition_subset_count({server}));
            any_single_attack =
                any_single_attack || deployment.coalition_holds_selected_body({server});
        }
        std::printf("| %2zu | %6.2f | %6.2f | %10llu | %4llu | %zu | %s |\n", servers,
                    cost.server_s, cost.total_s(), static_cast<unsigned long long>(max_bytes),
                    static_cast<unsigned long long>(max_subsets),
                    deployment.min_covering_coalition(), any_single_attack ? "yes" : "no");
    }
    std::printf("\n(expected shape: more servers shrink both the slowest-shard server time and "
                "every single server's 2^b-1 search space; with P=4 spread round-robin the "
                "full selection is only covered by a multi-server coalition)\n");

    // Measured ShardRouter fan-out over real loopback TCP: K in-process
    // shard endpoints (serve_shards above); the router fans every request
    // out concurrently and merges in global body order. The slowest-shard
    // column is the measured straggler the Table III model charges
    // analytically above.
    {
        constexpr std::size_t kTotalBodies = 10;
        const data::Batch batch = data::materialize(*scenario.test, 0, 8);
        std::printf("\n| K shards | fan-out p50 ms | fan-out p99 ms | slowest shard p50 ms | "
                    "per-shard downlink maps |\n");
        bench::print_rule(5);
        for (const std::size_t shard_count : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                                              std::size_t{10}}) {
            const std::size_t width = (kTotalBodies + shard_count - 1) / shard_count;
            // One compute thread per shard: the lockstep infer() below
            // never has more than one request in flight.
            const auto hosts = serve_shards(shard_count, width, /*workers=*/1);
            serve::ShardRouter router(connect_shards(hosts), transmit, nullptr,
                                      ensembler.client_tail(), selector,
                                      split::WireFormat::f32);
            router.set_recv_timeout(std::chrono::seconds(120));
            const std::size_t rounds = scale == bench::Scale::kFull ? 20 : 6;
            for (std::size_t r = 0; r < rounds; ++r) {
                (void)router.infer(batch.images);
            }
            const serve::LatencySummary latency = router.stats().latency();
            double slowest_p50 = 0.0;
            for (std::size_t s = 0; s < shard_count; ++s) {
                slowest_p50 = std::max(slowest_p50, router.shard_stats(s).latency().p50_ms);
            }
            std::printf("| %2zu | %8.2f | %8.2f | %8.2f | %zu |\n", shard_count, latency.p50_ms,
                        latency.p99_ms, slowest_p50, width);
            router.close();
        }
        std::printf("\n(fan-out latency should stay roughly flat in K — the shards run "
                    "concurrently — while each shard's downlink share, and with it every "
                    "single provider's view of the ensemble, shrinks)\n");
    }

    // Pipelined multiparty serving (protocol v3): the same measured
    // ShardRouter fan-out, now sweeping the in-flight request window.
    // Depth 1 reproduces the PR-3 lockstep cost (one fan-out round trip at
    // a time); larger windows keep every shard connection busy, so
    // requests/s should grow toward the shard-compute bound instead of the
    // round-trip bound. Rows land in BENCH_multiparty.json.
    {
        constexpr std::size_t kTotalBodies = 10;
        const data::Batch batch = data::materialize(*scenario.test, 0, 4);
        const std::size_t sweep_requests = scale == bench::Scale::kFull ? 64 : 24;
        std::printf("\n# pipelined fan-out: in-flight window sweep (%zu requests per cell)\n\n",
                    sweep_requests);
        std::printf("| K shards | inflight | req/s | p50 ms | p99 ms | vs depth 1 |\n");
        bench::print_rule(6);
        bench::JsonRows trajectory("multiparty_scaling");
        trajectory.meta("section", "pipelined_fanout");
        trajectory.meta("requests_per_cell", static_cast<double>(sweep_requests));
        for (const std::size_t shard_count : {std::size_t{2}, std::size_t{5}}) {
            const std::size_t width = (kTotalBodies + shard_count - 1) / shard_count;
            double depth1_rps = 0.0;
            for (const std::size_t inflight : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                               std::size_t{8}}) {
                const auto hosts = serve_shards(shard_count, width, /*workers=*/inflight);
                serve::ShardRouter router(connect_shards(hosts), transmit, nullptr,
                                          ensembler.client_tail(), selector,
                                          split::WireFormat::f32, std::chrono::seconds(30),
                                          inflight);
                router.set_recv_timeout(std::chrono::seconds(120));
                (void)router.infer(batch.images);  // warm-up
                const Stopwatch wall;
                serve::FutureWindow window(router.window());
                for (std::size_t r = 0; r < sweep_requests; ++r) {
                    (void)window.push(router.submit(batch.images));
                }
                while (!window.empty()) {
                    (void)window.pop();
                }
                const double seconds = wall.elapsed_seconds();
                const double rps =
                    static_cast<double>(sweep_requests) / (seconds > 0 ? seconds : 1e-9);
                if (inflight == 1) {
                    depth1_rps = rps;
                }
                const serve::LatencySummary latency = router.stats().latency();
                const double speedup = depth1_rps > 0 ? rps / depth1_rps : 0.0;
                std::printf("| %2zu | %zu | %7.1f | %7.2f | %7.2f | %4.2fx |\n", shard_count,
                            inflight, rps, latency.p50_ms, latency.p99_ms, speedup);
                trajectory.row()
                    .field("shards", shard_count)
                    .field("inflight", inflight)
                    .field("requests_per_s", rps)
                    .field("p50_ms", latency.p50_ms)
                    .field("p99_ms", latency.p99_ms)
                    .field("speedup_vs_lockstep", speedup);
                router.close();
            }
        }
        std::printf("\n(expected shape: when the K shard hosts have their own cores/machines, "
                    "each row family gains from depth — the lockstep fan-out leaves every "
                    "shard idle between round trips, the windowed one keeps all K pipes full "
                    "simultaneously. On a single core everything timeshares and the rows sit "
                    "at the compute bound; the req/s column then shows pipelining costs "
                    "nothing even when it cannot win.)\n");
        trajectory.write("BENCH_multiparty.json");
    }

    // Single-service reference: the same N=10 deployment through the
    // unified ens::serve surface (K=1 equivalent — one provider holds all
    // bodies), for the traffic/latency baseline the shard rows divide up.
    {
        serve::InferenceService service = serve::InferenceService::from_ensembler(ensembler);
        auto session = service.create_session();
        const data::Batch batch = data::materialize(*scenario.test, 0, 16);
        const serve::InferenceResult reference = session->infer(batch.images);
        std::printf("\nens::serve single-service reference (K=1): %llu B up + %llu B down, "
                    "%.1f ms end-to-end, %zu feature maps per request\n",
                    static_cast<unsigned long long>(session->uplink_stats().bytes),
                    static_cast<unsigned long long>(session->downlink_stats().bytes),
                    reference.total_ms, service.body_count());
    }
    return 0;
}
