// serve_daemon — host server bodies of a collaborative-inference
// deployment as a standalone process, speaking the length-prefixed
// TcpChannel protocol (serve/remote.hpp).
//
// The daemon owns ONLY bodies: the client keeps its head, split-point
// noise, secret selector and tail private (examples/sharded_client.cpp is
// the matching client; one whole-deployment daemon is its one-shard case).
//
// Two ways to get a deployment into the process:
//
//   --bundle <dir>   PRODUCTION SHAPE: boot purely from an on-disk
//     deployment bundle (serve/bundle.hpp) — arch specs + save_state
//     checkpoints; no trainer, no shared-seed discipline in the daemon.
//     Only MANIFEST.ens and this shard's body_*.ckpt files are read; the
//     secret CLIENT.ens (selector!) is never touched and need not even be
//     present on a server machine. Mutually exclusive with the demo-model
//     flags below. --optimize runs the graph compiler (nn/compile.hpp:
//     BN folding, activation fusion, noise baking) over the restored
//     bodies at boot — and over every hot-swapped generation — for a
//     faster serving path at unchanged wire parity.
//       ./serve_daemon --save-bundle demo_bundle --bodies 4 --seed 2000
//       ./serve_daemon --port 7070 --bundle demo_bundle --optimize
//     One shard of a multiparty layout hosts a slice of the bundle:
//       ./serve_daemon --port 7070 --bundle demo_bundle --bodies 0..2 &
//       ./serve_daemon --port 7071 --bundle demo_bundle --bodies 2..4 &
//
//   demo model (no --bundle): both sides derive their halves of a split
//     ResNet-18 deterministically from --seed, standing in for a shared
//     checkpoint. --save-bundle <dir> writes that demo deployment (bodies
//     + client half + a --select/--selector-seed secret selector) as a
//     bundle and exits, which is how the bundle examples above get their
//     input.
//
// Whole deployment (single host, RemoteSession client):
//   ./serve_daemon --port 7070 --bodies 4 --width 4 --image 16 --seed 2000
//
// One shard of a §III-D multiparty deployment (ShardRouter client):
// --bodies i..j hosts global bodies [i, j) of --total (default: j), e.g.
// the 6-body deployment below is split 2/2/2 over three non-colluding
// processes, so no single one ever holds all the bodies:
//   ./serve_daemon --port 7070 --bodies 0..2 --total 6 --seed 2000 &
//   ./serve_daemon --port 7071 --bodies 2..4 --total 6 --seed 2000 &
//   ./serve_daemon --port 7072 --bodies 4..6 --total 6 --seed 2000 &
//   ./sharded_client --shards 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072
//       --total 6 --select 2 --seed 2000    (one command line)
//
// Serving: the event-driven host (serve/reactor.hpp) — one poll()
// reactor thread owns every connection and --workers N (default 4, at most
// 1024) fixed compute threads serve them all, so connections held cost no
// threads. The daemon is lifecycle-managed:
//   SIGHUP          hot-swaps the bundle named by --swap-bundle (or
//                   --bundle) in live: existing sessions keep their
//                   pinned generation, new connections get the new one,
//                   zero requests dropped.
//   SIGTERM/SIGINT  graceful shutdown: stop accepting, drain every
//                   in-flight window, exit 0 — no torn replies.
// --reactor is accepted and ignored (the reactor is the only server), so
// existing command lines keep working.
//
// --port 0 picks an ephemeral port and prints it, which is how the CI
// smoke run, the serving tests (tests/serve/daemon_harness.hpp) and the
// benchmark boot it.

#include <csignal>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/args.hpp"
#include "core/selector.hpp"
#include "example_client.hpp"
#include "serve/bundle.hpp"
#include "serve/deployment.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "split/multiparty.hpp"
#include "split/tcp_channel.hpp"

namespace {

using namespace ens;

/// Upper bound on --workers: each worker is an OS thread, and a typo'd
/// count must fail at the command line, not in the allocator.
constexpr std::int64_t kMaxWorkers = 1024;

/// Body k of the deployment — the shared demo derivation
/// (examples/example_client.hpp), so daemon and clients cannot drift.
split::SplitModel build_part(const nn::ResNetConfig& arch, std::uint64_t seed, std::size_t k) {
    return example_client::build_part(arch, seed, k);
}

/// Parses --bodies: a plain count "n" means the whole deployment [0, n);
/// a range "i..j" means the shard of global bodies [i, j). Returns false on
/// malformed input.
bool parse_bodies(const std::string& spec, std::size_t& begin, std::size_t& end) {
    // std::stoull silently wraps negative input ("-1" -> 2^64-1), so reject
    // signs up front instead of exploding on a 2^64-body reserve later.
    if (spec.find_first_of("-+") != std::string::npos) {
        return false;
    }
    try {
        const std::size_t dots = spec.find("..");
        std::size_t parsed = 0;
        if (dots == std::string::npos) {
            begin = 0;
            end = static_cast<std::size_t>(std::stoull(spec, &parsed));
            // Full consumption: "2.4" must not silently parse as count 2.
            return parsed == spec.size() && end > 0;
        }
        begin = static_cast<std::size_t>(std::stoull(spec.substr(0, dots), &parsed));
        if (parsed != dots) {
            return false;
        }
        const std::string tail = spec.substr(dots + 2);
        end = static_cast<std::size_t>(std::stoull(tail, &parsed));
        return parsed == tail.size() && end > begin;
    } catch (const std::exception&) {
        return false;
    }
}

/// Builds the demo deployment (all bodies + the shared demo client half,
/// example_client::derive_demo_client — the same derivation the clients
/// use in demo mode) and writes it as a bundle. A non-empty
/// `shard_endpoints` (from --replicas) records the replica topology in the
/// manifest: the shard plan becomes one contiguous slice per endpoint
/// group (split::ShardPlan::blocks), and --bundle clients can
/// then dial the whole replicated deployment with no --shards flag.
int write_demo_bundle(const std::string& dir, const nn::ResNetConfig& arch,
                      std::uint64_t seed, std::size_t num_bodies, std::size_t num_selected,
                      std::uint64_t selector_seed, std::size_t max_inflight,
                      std::vector<std::vector<serve::BundleReplicaEndpoint>> shard_endpoints,
                      const serve::RetryPolicy& retry) {
    std::vector<nn::LayerPtr> bodies;
    for (std::size_t k = 0; k < num_bodies; ++k) {
        bodies.push_back(std::move(build_part(arch, seed, k).body));
    }
    serve::ClientArtifacts client = example_client::derive_demo_client(
        arch, seed, num_bodies, num_selected, selector_seed);

    serve::BundleArtifacts artifacts;
    for (nn::LayerPtr& body : bodies) {
        body->set_training(false);
        artifacts.bodies.push_back(body.get());
    }
    artifacts.head = client.head.get();
    artifacts.tail = client.tail.get();
    artifacts.selector = &client.selector;
    artifacts.max_inflight = max_inflight;
    if (!shard_endpoints.empty()) {
        const std::size_t shards = shard_endpoints.size();
        if (shards > num_bodies) {
            std::fprintf(stderr, "--replicas names %zu shards for %zu bodies\n", shards,
                         num_bodies);
            return 2;
        }
        for (const auto& slice : split::ShardPlan::blocks(num_bodies, shards).server_bodies) {
            artifacts.shard_plan.push_back(serve::BundleShardSlice{slice.front(), slice.size()});
        }
        artifacts.shard_endpoints = std::move(shard_endpoints);
    }
    artifacts.retry.max_attempts = static_cast<std::uint32_t>(retry.max_attempts);
    artifacts.retry.backoff_ms = static_cast<std::uint32_t>(retry.base_backoff.count());
    artifacts.retry.backoff_cap_ms = static_cast<std::uint32_t>(retry.max_backoff.count());
    serve::save_bundle(dir, artifacts);
    std::printf("serve_daemon: wrote deployment bundle (%zu bodies, secret selector %s) to %s\n",
                artifacts.bodies.size(), client.selector.to_string().c_str(), dir.c_str());
    if (!artifacts.shard_endpoints.empty()) {
        std::printf("manifest records %zu shards with replica endpoints + the retry policy "
                    "(max %zu attempts, backoff %lld..%lld ms); --bundle clients dial them "
                    "directly\n",
                    artifacts.shard_plan.size(), retry.max_attempts,
                    static_cast<long long>(retry.base_backoff.count()),
                    static_cast<long long>(retry.max_backoff.count()));
    }
    std::printf("ship MANIFEST.ens + body_*.ckpt to the server(s); CLIENT.ens stays with the "
                "client — it holds the selector.\n");
    return 0;
}

/// The serving loop: runs the event loop on its own thread and
/// turns the main thread into the signal loop (SIGHUP = live bundle
/// swap, SIGTERM/SIGINT = graceful drain). `swap_dir` may be empty (a
/// demo-mode daemon with nothing on disk to reload).
int run_reactor(std::unique_ptr<serve::BodyHost> host, split::ChannelListener& listener,
                std::size_t workers, const std::string& swap_dir, bool optimize) {
    // Constructed BEFORE the reactor spawns anything: the signal mask is
    // inherited, so no worker ever takes a delivery meant for this loop.
    serve::SignalSet signals{SIGHUP, SIGTERM, SIGINT};
    // `optimize` is sticky: the initial host was already graph-compiled by
    // from_bundle, and the manager re-applies the flag to every SIGHUP
    // swap so hot-swapped generations boot compiled too.
    auto manager = std::make_shared<serve::DeploymentManager>(
        std::shared_ptr<serve::BodyHost>(std::move(host)), optimize);
    serve::ReactorConfig config;
    config.worker_threads = workers;
    serve::ReactorHost reactor(manager, config);
    std::thread reactor_thread([&] { reactor.run(listener); });

    for (;;) {
        const int signo = signals.wait();
        if (signo == SIGHUP) {
            if (swap_dir.empty()) {
                std::fprintf(stderr, "serve_daemon: SIGHUP ignored — no --swap-bundle (or "
                                     "--bundle) directory to reload from\n");
                continue;
            }
            try {
                const std::uint32_t version = manager->swap_from_bundle(swap_dir);
                std::printf("serve_daemon: hot-swapped bundle %s in as deployment v%u; live "
                            "sessions keep their pinned generation\n",
                            swap_dir.c_str(), version);
                std::fflush(stdout);
            } catch (const std::exception& e) {
                // A bad bundle must never take the live generation down.
                std::fprintf(stderr, "serve_daemon: hot swap from %s FAILED (still serving "
                                     "v%u): %s\n",
                             swap_dir.c_str(), manager->version(), e.what());
            }
            continue;
        }
        std::printf("serve_daemon: %s — draining in-flight windows...\n",
                    signo == SIGTERM ? "SIGTERM" : "SIGINT");
        std::fflush(stdout);
        reactor.shutdown();
        break;
    }
    reactor_thread.join();
    const serve::GaugeSnapshot gauges = reactor.gauges();
    std::printf("serve_daemon: drained; served %llu requests over %llu connections "
                "(%llu dropped, %llu hot swaps)\n",
                static_cast<unsigned long long>(gauges.requests_served),
                static_cast<unsigned long long>(gauges.connections_total),
                static_cast<unsigned long long>(gauges.connections_dropped),
                static_cast<unsigned long long>(gauges.swaps_completed));
    return 0;
}

int run_daemon(int argc, char** argv) {
    ArgParser args(argc, argv);
    const std::int64_t port_flag = args.get_int("port", 7070);
    if (port_flag < 0 || port_flag > 65535) {
        std::fprintf(stderr, "--port must be in [0, 65535]\n");
        return 2;
    }
    const auto port = static_cast<std::uint16_t>(port_flag);
    const std::string host = args.get_string("host", "127.0.0.1");
    const std::string bundle_dir = args.get_string("bundle", "");
    const std::string save_bundle_dir = args.get_string("save-bundle", "");
    const bool has_inflight_flag = args.has("max-inflight");
    // Per-connection pipelining window (protocol v3): how many tagged
    // requests one connection processes concurrently. Advertised in the
    // handshake; clients window against min(their cap, this). With
    // --bundle, the bundle's suggested window applies unless overridden.
    const auto max_inflight = static_cast<std::size_t>(
        args.get_int("max-inflight", static_cast<std::int64_t>(serve::kDefaultMaxInflight)));
    if ((max_inflight == 0 || max_inflight > serve::kMaxAdvertisedInflight) &&
        has_inflight_flag) {
        std::fprintf(stderr, "--max-inflight must be in [1, %u]\n",
                     serve::kMaxAdvertisedInflight);
        return 2;
    }

    (void)args.has("reactor");  // accepted no-op: the reactor is the only server
    const bool optimize = args.has("optimize");
    const std::int64_t workers = args.get_int("workers", 4);
    if (workers < 1 || workers > kMaxWorkers) {
        std::fprintf(stderr, "--workers must be in [1, %lld]\n",
                     static_cast<long long>(kMaxWorkers));
        return 2;
    }
    const std::string swap_bundle_dir = args.get_string("swap-bundle", "");
    if (optimize && bundle_dir.empty()) {
        std::fprintf(stderr, "--optimize needs --bundle (the graph compiler runs at bundle "
                             "boot, and sticks to every hot swap)\n");
        return 2;
    }

    if (!bundle_dir.empty()) {
        // Bundle mode: the deployment is fixed by the bundle — every
        // demo-model flag is a contradiction, not a default to ignore.
        for (const char* flag :
             {"seed", "width", "image", "classes", "total", "save-bundle", "select",
              "selector-seed"}) {
            if (args.has(flag)) {
                std::fprintf(stderr,
                             "--%s conflicts with --bundle (the bundle fixes the deployment)\n",
                             flag);
                return 2;
            }
        }
        const std::string bodies_spec = args.get_string("bodies", "");
        for (const std::string& flag : args.unconsumed()) {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            return 2;
        }

        std::unique_ptr<serve::BodyHost> bodyhost;
        try {
            std::size_t begin = 0;
            std::size_t count = static_cast<std::size_t>(-1);
            if (!bodies_spec.empty()) {
                std::size_t end = 0;
                if (!parse_bodies(bodies_spec, begin, end)) {
                    std::fprintf(stderr,
                                 "bad --bodies %s (want a count \"n\" or a range \"i..j\")\n",
                                 bodies_spec.c_str());
                    return 2;
                }
                count = end - begin;
            }
            bodyhost = serve::BodyHost::from_bundle(bundle_dir, begin, count, optimize);
            if (has_inflight_flag) {
                bodyhost->set_max_inflight(max_inflight);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "cannot boot from bundle %s: %s\n", bundle_dir.c_str(),
                         e.what());
            return 1;
        }

        split::ChannelListener listener(port, host);
        const serve::HostInfo info = bodyhost->host_info();
        std::printf("serve_daemon: hosting %s from bundle %s on %s:%u, pipelining up to %zu "
                    "in-flight requests per connection\n",
                    info.to_string().c_str(), bundle_dir.c_str(), host.c_str(),
                    listener.port(), bodyhost->max_inflight());
        if (optimize) {
            std::printf("bodies were graph-compiled at boot (BN folds, fused epilogues); "
                        "hot-swapped generations will be compiled too\n");
        }
        std::printf("no trainer ran in this process, and the bundle's CLIENT.ens (the secret "
                    "selector) was never read. Ctrl-C to stop.\n");
        std::fflush(stdout);
        return run_reactor(std::move(bodyhost), listener, static_cast<std::size_t>(workers),
                           swap_bundle_dir.empty() ? bundle_dir : swap_bundle_dir, optimize);
    }

    const std::string bodies_spec = args.get_string("bodies", "4");
    const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 2000));

    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    if (!parse_bodies(bodies_spec, body_begin, body_end)) {
        std::fprintf(stderr, "bad --bodies %s (want a count \"n\" or a range \"i..j\")\n",
                     bodies_spec.c_str());
        return 2;
    }
    const auto total =
        static_cast<std::size_t>(args.get_int("total", static_cast<std::int64_t>(body_end)));

    nn::ResNetConfig arch;
    arch.base_width = args.get_int("width", 4);
    arch.image_size = args.get_int("image", 16);
    arch.num_classes = args.get_int("classes", 10);

    // The selector flags belong to --save-bundle only; in serve mode they
    // stay unconsumed and are rejected below (a serving daemon must never
    // be handed the secret selection).
    std::size_t num_selected = body_end - body_begin;
    std::uint64_t selector_seed = 7;
    std::vector<std::vector<serve::BundleReplicaEndpoint>> shard_endpoints;
    serve::RetryPolicy bundle_retry;
    if (!save_bundle_dir.empty()) {
        num_selected = static_cast<std::size_t>(
            args.get_int("select", static_cast<std::int64_t>(body_end - body_begin)));
        selector_seed = static_cast<std::uint64_t>(args.get_int("selector-seed", 7));
        // --replicas records the deployment's replica topology (same
        // '|'/',' syntax as sharded_client --shards) in the manifest;
        // --retry-max / --retry-backoff-ms record the suggested client
        // retry policy alongside it.
        if (args.has("replicas")) {
            shard_endpoints = example_client::parse_replicated_shards(
                args.get_string("replicas", ""), "replicas");
        }
        example_client::apply_retry_flags(args, bundle_retry);
    }

    for (const std::string& flag : args.unconsumed()) {
        std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
        return 2;
    }
    if (body_end > total) {
        std::fprintf(stderr, "--bodies %s exceeds --total %zu\n", bodies_spec.c_str(), total);
        return 2;
    }
    if (max_inflight == 0 || max_inflight > serve::kMaxAdvertisedInflight) {
        std::fprintf(stderr, "--max-inflight must be in [1, %u]\n",
                     serve::kMaxAdvertisedInflight);
        return 2;
    }

    if (!save_bundle_dir.empty()) {
        if (body_begin != 0 || body_end != total) {
            std::fprintf(stderr,
                         "--save-bundle writes the WHOLE deployment; use a plain --bodies "
                         "count, not a shard range\n");
            return 2;
        }
        if (num_selected == 0 || num_selected > body_end) {
            std::fprintf(stderr, "--select must be in [1, --bodies]\n");
            return 2;
        }
        try {
            return write_demo_bundle(save_bundle_dir, arch, seed, body_end, num_selected,
                                     selector_seed, max_inflight, std::move(shard_endpoints),
                                     bundle_retry);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "cannot write bundle %s: %s\n", save_bundle_dir.c_str(),
                         e.what());
            return 1;
        }
    }

    std::vector<nn::LayerPtr> bodies;
    bodies.reserve(body_end - body_begin);
    for (std::size_t k = body_begin; k < body_end; ++k) {
        bodies.push_back(std::move(build_part(arch, seed, k).body));
    }
    auto bodyhost = std::make_unique<serve::BodyHost>(std::move(bodies));
    bodyhost->set_shard(body_begin, total);
    bodyhost->set_max_inflight(max_inflight);

    split::ChannelListener listener(port, host);
    const serve::HostInfo info = bodyhost->host_info();
    std::printf("serve_daemon: hosting ResNet-18 %s (width %lld, %lldpx, seed %llu) on %s:%u, "
                "pipelining up to %zu in-flight requests per connection\n",
                info.to_string().c_str(), static_cast<long long>(arch.base_width),
                static_cast<long long>(arch.image_size),
                static_cast<unsigned long long>(seed), host.c_str(), listener.port(),
                bodyhost->max_inflight());
    std::printf("the client-side head/noise/selector/tail never reach this process — "
                "only split-point feature maps do. Ctrl-C to stop.\n");
    std::fflush(stdout);

    return run_reactor(std::move(bodyhost), listener, static_cast<std::size_t>(workers),
                       swap_bundle_dir, false);
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run_daemon(argc, argv);
    } catch (const std::invalid_argument& e) {
        // Malformed flag values (--port banana) are usage errors, not crashes.
        std::fprintf(stderr, "serve_daemon: %s\n", e.what());
        return 2;
    }
}
