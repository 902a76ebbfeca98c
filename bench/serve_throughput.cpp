// serve_throughput — requests/sec of the ens::serve pipeline vs. client
// concurrency and micro-batch size, plus the protocol-v3 PIPELINED remote
// path vs. in-flight window depth.
//
// Section 1 (in-proc service): the Ensembler serving shape (N = 10
// independent ResNet-18 bodies behind one head) at bench width, untrained
// weights — this measures the serving machinery (wire codec, batcher, body
// fan-out on ens::ThreadPool), not model quality. Each client thread owns
// one ClientSession and keeps a few single-image requests outstanding.
//
// Section 2 (pipelined remote serving): a BodyHost served by a ReactorHost
// behind a real loopback TCP listener, a RemoteSession client, and a
// sweep of the in-flight request window (depth 1 = the old lockstep
// protocol, one RTT per request; depth 2/4/8 = protocol-v3 pipelining).
// The geometry here is deliberately SMALL — at the paper's split the wire
// cost, not the body compute, dominates the regular-user path (§III-D /
// Table 3), so this is the regime where hiding round trips matters: depth
// >= 4 should beat depth 1 by >= 2x. Results also land in BENCH_serve.json (machine
// readable: req/s, p50/p99 per depth) as the perf trajectory future PRs
// regress against.
//
// Thread count comes from ENS_THREADS (the global pool is sized once per
// process): rerun with ENS_THREADS=1,2,4,... to see requests/sec scale
// with workers.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "../tests/serve/serve_harness.hpp"
#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/threadpool.hpp"
#include "core/selector.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "serve/remote.hpp"
#include "serve/service.hpp"
#include "split/fault_channel.hpp"
#include "split/tcp_channel.hpp"

namespace {

using namespace ens;

constexpr std::size_t kBodies = 10;

struct Row {
    double requests_per_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double mean_coalesced = 0.0;
};

Row run_config(const nn::ResNetConfig& arch, std::size_t max_batch, std::size_t clients,
               std::size_t requests_per_client) {
    serve::ServeConfig config;
    config.max_batch = max_batch;
    serve::InferenceService service = serve::InferenceService::from_baseline(
        bench::make_serving_pipeline(arch, kBodies), config);

    std::vector<std::shared_ptr<serve::ClientSession>> sessions;
    std::vector<Tensor> inputs;
    for (std::size_t c = 0; c < clients; ++c) {
        sessions.push_back(service.create_session());
        Rng rng(10 + c);
        inputs.push_back(
            Tensor::uniform(Shape{1, 3, arch.image_size, arch.image_size}, rng, 0.0f, 1.0f));
    }
    // Warm-up (first forwards allocate im2col scratch etc.).
    for (std::size_t c = 0; c < clients; ++c) {
        (void)sessions[c]->infer(inputs[c]);
        sessions[c]->reset_stats();
    }

    const Stopwatch wall;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            // Keep a small window of requests in flight so the batcher has
            // something to coalesce.
            serve::FutureWindow window(4);
            for (std::size_t r = 0; r < requests_per_client; ++r) {
                (void)window.push(sessions[c]->submit(inputs[c]));
            }
            while (!window.empty()) {
                (void)window.pop();
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const double seconds = wall.elapsed_seconds();

    Row row;
    row.requests_per_s =
        static_cast<double>(clients * requests_per_client) / (seconds > 0 ? seconds : 1e-9);
    double coalesced_sum = 0.0;
    for (const auto& session : sessions) {
        const serve::LatencySummary latency = session->stats().latency();
        row.p50_ms = std::max(row.p50_ms, latency.p50_ms);
        row.p99_ms = std::max(row.p99_ms, latency.p99_ms);
        coalesced_sum += session->stats().mean_coalesced_images();
    }
    row.mean_coalesced = coalesced_sum / static_cast<double>(clients);
    return row;
}

// ------------------------------------------------- pipelined remote path

/// The link-propagation-delay decorator lives in the library now
/// (split/fault_channel.hpp) — the bench keeps its original name.
using LinkDelayChannel = split::DelayChannel;

/// Wire-bound serving geometry: a private Linear head, `bodies` Linear
/// bodies hosted remotely, a Linear tail over the selected maps. Tiny on
/// purpose — the point is the transport, whose round trips dominate at the
/// paper's split for the regular-user path.
struct RemoteParts {
    std::unique_ptr<nn::Sequential> head;
    std::vector<nn::LayerPtr> bodies;
    std::unique_ptr<nn::Sequential> tail;
};

constexpr std::int64_t kRemoteIn = 24;
constexpr std::int64_t kRemoteFeature = 96;
constexpr std::size_t kRemoteBodies = 2;

RemoteParts make_remote_parts(std::uint64_t seed) {
    RemoteParts parts;
    Rng head_rng(seed);
    parts.head = std::make_unique<nn::Sequential>();
    parts.head->emplace<nn::Linear>(kRemoteIn, kRemoteFeature, head_rng);
    parts.head->set_training(false);
    for (std::size_t k = 0; k < kRemoteBodies; ++k) {
        Rng body_rng(seed + 1 + k);
        auto body = std::make_unique<nn::Sequential>();
        body->emplace<nn::Linear>(kRemoteFeature, kRemoteFeature, body_rng);
        body->set_training(false);
        parts.bodies.push_back(std::move(body));
    }
    Rng tail_rng(seed + 100);
    parts.tail = std::make_unique<nn::Sequential>();
    parts.tail->emplace<nn::Linear>(static_cast<std::int64_t>(kRemoteBodies) * kRemoteFeature, 10,
                                    tail_rng);
    parts.tail->set_training(false);
    return parts;
}

struct PipelinedRow {
    std::size_t inflight = 0;
    double requests_per_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

PipelinedRow run_pipelined(std::size_t inflight, std::size_t requests,
                           std::chrono::microseconds one_way_delay) {
    constexpr std::uint64_t kSeed = 4242;

    // Host side: bodies behind a loopback reactor, one worker per window
    // slot — the compute parallelism one connection at this depth can use.
    RemoteParts host_parts = make_remote_parts(kSeed);
    serve::ReactorConfig config;
    config.worker_threads = inflight;
    serve::harness::ReactorFixture host(
        std::make_shared<serve::BodyHost>(std::move(host_parts.bodies)), config);

    PipelinedRow row;
    row.inflight = inflight;
    {
        RemoteParts client_parts = make_remote_parts(kSeed);
        std::vector<std::size_t> all(kRemoteBodies);
        for (std::size_t i = 0; i < all.size(); ++i) {
            all[i] = i;
        }
        std::unique_ptr<split::Channel> channel =
            split::tcp_connect("127.0.0.1", host.port());
        if (one_way_delay.count() > 0) {
            channel = std::make_unique<LinkDelayChannel>(std::move(channel), one_way_delay);
        }
        serve::RemoteSession session(std::move(channel), *client_parts.head, nullptr,
                                     *client_parts.tail,
                                     core::Selector(kRemoteBodies, std::move(all)),
                                     split::WireFormat::f32, std::chrono::seconds(30), inflight);
        session.set_recv_timeout(std::chrono::seconds(120));

        Rng data_rng(17);
        const Tensor input = Tensor::uniform(Shape{1, kRemoteIn}, data_rng, 0.0f, 1.0f);
        // Warm-up: first forwards allocate scratch, first frames size the
        // buffer pools. (The percentile summary below includes these eight
        // lockstep requests; the timed sweep dwarfs them.)
        for (std::size_t r = 0; r < 8; ++r) {
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
    return row;
}

}  // namespace

int main() {
    const bench::Scale scale = bench::current_scale();
    const std::size_t requests_per_client =
        scale == bench::Scale::kTiny ? 8 : (scale == bench::Scale::kSmall ? 24 : 64);

    nn::ResNetConfig arch;
    arch.base_width = 4;
    arch.image_size = 16;
    arch.num_classes = 10;

    std::printf("# serve throughput: N=%zu bodies, width %lld, single-image requests "
                "(scale=%s, ENS_THREADS pool=%zu — rerun with other ENS_THREADS values "
                "to scale workers)\n\n",
                kBodies, static_cast<long long>(arch.base_width), bench::scale_name(scale),
                ens::global_pool().size());
    std::printf("| max_batch | clients | req/s | p50 ms | p99 ms | mean server batch |\n");
    bench::print_rule(6);
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
        for (const std::size_t clients : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            const Row row = run_config(arch, max_batch, clients, requests_per_client);
            std::printf("| %2zu | %zu | %7.1f | %6.1f | %6.1f | %4.1f |\n", max_batch, clients,
                        row.requests_per_s, row.p50_ms, row.p99_ms, row.mean_coalesced);
        }
    }
    std::printf("\n(expected shape: with clients > 1 and max_batch > 1 the batcher coalesces "
                "concurrent requests — mean server batch rises above 1 and req/s improves "
                "over the max_batch=1 rows; the Ensembler fan-out parallelizes across the "
                "pool, so higher ENS_THREADS lifts all rows)\n");

    // ---- pipelined remote serving: in-flight window sweep. Two link
    // models: raw loopback (propagation delay ~0 — gains come only from
    // overlapping client/host work and fewer wakeup stalls, so they scale
    // with core count) and a modeled LAN hop (0.2 ms each way, the regime
    // the paper's Table 3 cost model charges — here depth >= 4 must beat
    // lockstep by >= 2x, because lockstep pays the full RTT per request
    // while the window overlaps them).
    const std::size_t pipelined_requests =
        scale == bench::Scale::kTiny ? 200 : (scale == bench::Scale::kSmall ? 600 : 2000);
    constexpr std::chrono::microseconds kLanOneWay{200};
    std::printf("\n# pipelined remote serving (protocol v3, %zu tiny-linear bodies, %zu "
                "requests per depth)\n\n",
                kRemoteBodies, pipelined_requests);
    std::printf("| link | inflight | req/s | p50 ms | p99 ms | vs depth 1 |\n");
    bench::print_rule(6);
    bench::JsonRows trajectory("serve_throughput");
    trajectory.meta("section", "pipelined_remote");
    trajectory.meta("bodies", static_cast<double>(kRemoteBodies));
    trajectory.meta("requests_per_depth", static_cast<double>(pipelined_requests));
    trajectory.meta("lan_one_way_us", static_cast<double>(kLanOneWay.count()));
    struct LinkMode {
        const char* name;
        std::chrono::microseconds one_way;
    };
    for (const LinkMode link : {LinkMode{"loopback", std::chrono::microseconds{0}},
                                LinkMode{"lan-0.2ms", kLanOneWay}}) {
        double depth1_rps = 0.0;
        for (const std::size_t inflight : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                           std::size_t{8}}) {
            const PipelinedRow row = run_pipelined(inflight, pipelined_requests, link.one_way);
            if (inflight == 1) {
                depth1_rps = row.requests_per_s;
            }
            const double speedup = depth1_rps > 0 ? row.requests_per_s / depth1_rps : 0.0;
            std::printf("| %s | %zu | %8.0f | %6.3f | %6.3f | %4.2fx |\n", link.name,
                        row.inflight, row.requests_per_s, row.p50_ms, row.p99_ms, speedup);
            trajectory.row()
                .field("link", std::string(link.name))
                .field("inflight", row.inflight)
                .field("requests_per_s", row.requests_per_s)
                .field("p50_ms", row.p50_ms)
                .field("p99_ms", row.p99_ms)
                .field("speedup_vs_lockstep", speedup);
        }
    }
    std::printf("\n(expected shape: on the modeled LAN link, depth 1 — the old lockstep "
                "protocol — pays one full RTT per request, so req/s sits near 1/RTT; depth >= "
                "4 overlaps round trips and must clear 2x lockstep, approaching the raw "
                "compute bound of the loopback rows. Raw-loopback gains are bounded by core "
                "count: with client and host timesharing one core there is little idle to "
                "reclaim.)\n");
    trajectory.write("BENCH_serve.json");
    return 0;
}
