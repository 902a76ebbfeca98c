// sharded_client — the client half of cross-process collaborative
// inference: connects to K serve_daemon shard processes (each hosting a
// disjoint slice of the N server bodies, optionally behind R replicas),
// keeps the head, secret selector and tail local, and routes every request
// through a serve::ShardRouter that fans the split-point features out to
// one healthy replica of every shard concurrently and merges the returned
// feature maps in global body order. A replica that dies mid-request is
// failed over transparently (the request replays on a surviving replica);
// the background redialer re-admits it once it comes back. One daemon
// hosting the whole deployment is just K = 1: --shards host:port.
//
// Single-host flow (one daemon serves all N bodies):
//   ./serve_daemon --save-bundle demo_bundle --bodies 4 --select 2
//   ./serve_daemon --port 7070 --bundle demo_bundle &
//   ./sharded_client --shards 127.0.0.1:7070 --bundle demo_bundle --requests 8
// or, with both halves derived from the same seeds:
//   ./serve_daemon --port 7070 --bodies 4 --width 4 --image 16 --seed 2000 &
//   ./sharded_client --shards 127.0.0.1:7070 --total 4 --width 4 --image 16
//       --seed 2000 --select 2 --wire q8 --requests 8   (one command line)
//
// Bundle flow (production shape — every process restores from disk, no
// shared seeds; only the client reads the secret CLIENT.ens):
//   ./serve_daemon --save-bundle demo_bundle --bodies 6 --select 2
//   ./serve_daemon --port 7070 --bundle demo_bundle --bodies 0..2 &
//   ./serve_daemon --port 7071 --bundle demo_bundle --bodies 2..4 &
//   ./serve_daemon --port 7072 --bundle demo_bundle --bodies 4..6 &
//   ./sharded_client --shards 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072
//       --bundle demo_bundle --requests 8    (one command line)
// When the bundle was saved with --replicas, the manifest records the full
// replica topology and the suggested retry policy: --bundle alone (no
// --shards) dials exactly that deployment.
//
// Replicated flow (R = 2 per shard; '|' separates replicas of one shard):
//   ./sharded_client
//       --shards 127.0.0.1:7070|127.0.0.1:7170,127.0.0.1:7071|127.0.0.1:7171
//       --bundle demo_bundle --retry-max 4 --retry-backoff-ms 50 --stats
//
// Demo flow (both halves derived from the same seeds, standing in for a
// shared checkpoint):
//   ./serve_daemon --port 7070 --bodies 0..2 --total 6 --seed 2000 &
//   ./serve_daemon --port 7071 --bodies 2..4 --total 6 --seed 2000 &
//   ./serve_daemon --port 7072 --bodies 4..6 --total 6 --seed 2000 &
//   ./sharded_client --shards 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072
//       --total 6 --select 2 --wire q8 --requests 8    (one command line)
//
// --total/--width/--image/--classes/--seed must match the daemons; the
// body slices come from each daemon's handshake, and the router refuses
// to start unless they tile [0, N) exactly (and every replica of a shard
// agrees on its slice). No daemon ever learns which P bodies the secret
// selector actually uses — and unlike the single-host deployment, no
// daemon even HOLDS all N bodies, so a lone adversarial provider cannot
// enumerate the full 2^N - 1 shadow-subset space. Weights are untrained:
// this demo exercises transport, routing and accounting, not accuracy.

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "example_client.hpp"
#include "serve/shard_router.hpp"
#include "split/tcp_channel.hpp"

int main(int argc, char** argv) {
    using namespace ens;
    ArgParser args(argc, argv);
    const bool has_shards_flag = args.has("shards");
    const std::string shards_spec =
        args.get_string("shards", "127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072");
    const std::string bundle_dir = args.get_string("bundle", "");
    const auto requests = static_cast<std::size_t>(args.get_int("requests", 4));
    // In-flight window (protocol v3 pipelining): 1 = lockstep like the old
    // client; >1 keeps every shard connection full across requests.
    const auto inflight = static_cast<std::size_t>(args.get_int("inflight", 4));
    // Demo-image geometry. In bundle mode it must match what the bundled
    // head was trained for (the bundle fixes the MODEL; the input shape is
    // a property of the data this demo fabricates).
    const auto image_size = args.get_int("image", 16);
    const bool has_wire_flag = args.has("wire");
    split::WireFormat wire = example_client::parse_wire(args.get_string("wire", "f32"));
    // --replicas R asserts the resolved topology has exactly R replicas on
    // every shard — a deployment-shape typo detector, not a dial.
    const bool has_replicas_flag = args.has("replicas");
    const auto replicas_expected = static_cast<std::size_t>(args.get_int("replicas", 0));
    const bool want_stats = args.has("stats");
    serve::RetryPolicy retry;
    const bool has_retry_max = args.has("retry-max");
    const bool has_retry_backoff = args.has("retry-backoff-ms");
    if (inflight == 0) {
        std::fprintf(stderr, "--inflight must be >= 1\n");
        return 2;
    }
    if (has_replicas_flag && replicas_expected == 0) {
        std::fprintf(stderr, "--replicas must be >= 1\n");
        return 2;
    }

    // In bundle mode the manifest's recorded retry policy is the default;
    // the flags override it either way (apply_retry_flags runs after the
    // manifest is read, below — here we only consume the flags so the
    // unknown-flag sweep inside resolve_client_artifacts stays clean).
    serve::ClientArtifacts client = example_client::resolve_client_artifacts(
        args, bundle_dir, /*default_total=*/6, image_size, has_wire_flag, wire);

    std::vector<std::vector<serve::ReplicaEndpoint>> shards;
    {
        std::vector<std::vector<serve::BundleReplicaEndpoint>> parsed;
        if (!bundle_dir.empty() && !has_shards_flag) {
            // No --shards: the manifest's recorded replica topology IS the
            // deployment (bundles saved with --replicas).
            serve::BundleManifest manifest;
            try {
                manifest = serve::load_bundle_manifest(bundle_dir);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "cannot load bundle manifest from %s: %s\n",
                             bundle_dir.c_str(), e.what());
                return 1;
            }
            if (manifest.shard_endpoints.empty()) {
                std::fprintf(stderr,
                             "bundle %s records no replica endpoints — pass --shards (the "
                             "bundle was saved without --replicas)\n",
                             bundle_dir.c_str());
                return 2;
            }
            parsed = manifest.shard_endpoints;
            retry.max_attempts = manifest.retry.max_attempts;
            retry.base_backoff = std::chrono::milliseconds(manifest.retry.backoff_ms);
            retry.max_backoff = std::chrono::milliseconds(manifest.retry.backoff_cap_ms);
            if (retry.max_backoff < retry.base_backoff) {
                retry.max_backoff = retry.base_backoff;
            }
        } else {
            parsed = example_client::parse_replicated_shards(shards_spec, "shards");
        }
        shards.reserve(parsed.size());
        for (const auto& group : parsed) {
            std::vector<serve::ReplicaEndpoint> replicas;
            replicas.reserve(group.size());
            for (const serve::BundleReplicaEndpoint& endpoint : group) {
                replicas.push_back(serve::ReplicaEndpoint{endpoint.host, endpoint.port});
            }
            shards.push_back(std::move(replicas));
        }
    }
    if (has_retry_max || has_retry_backoff) {
        example_client::apply_retry_flags(args, retry);
    }
    if (has_replicas_flag) {
        for (std::size_t s = 0; s < shards.size(); ++s) {
            if (shards[s].size() != replicas_expected) {
                std::fprintf(stderr, "shard %zu has %zu replicas, --replicas promised %zu\n",
                             s, shards[s].size(), replicas_expected);
                return 2;
            }
        }
    }

    std::printf("sharded_client: %zu shards, secret selector %s (stays local)\n",
                shards.size(), client.selector.to_string().c_str());
    serve::ShardRouter router(shards, *client.head, client.noise.get(), *client.tail,
                              client.selector, wire, retry, inflight);
    router.set_recv_timeout(std::chrono::seconds(60));  // no silent wedging

    std::printf("handshakes ok: %zu bodies tiled over %zu shards, wire format %s, in-flight "
                "window %zu (min of --inflight and every shard's advertised cap)\n",
                router.body_count(), router.shard_count(), split::wire_format_name(wire),
                router.window());
    for (std::size_t s = 0; s < router.shard_count(); ++s) {
        const serve::HostInfo shard = router.shard_map()[s];
        std::printf("  shard %zu hosts bodies [%zu, %zu) on %zu replica(s):", s,
                    shard.body_begin, shard.body_end(), shards[s].size());
        for (const serve::ReplicaEndpoint& replica : shards[s]) {
            std::printf(" %s:%u", replica.host.c_str(), replica.port);
        }
        std::printf("\n");
    }

    // Pipelined request loop: keep window() submissions outstanding across
    // all shards; futures may resolve out of order.
    Rng data_rng(99);
    serve::FutureWindow window(router.window());
    for (std::size_t r = 0; r < requests; ++r) {
        const Tensor image =
            Tensor::uniform(Shape{1, 3, image_size, image_size}, data_rng, 0.0f, 1.0f);
        if (const auto done = window.push(router.submit(image))) {
            example_client::report_result(*done);
        }
    }
    while (!window.empty()) {
        example_client::report_result(window.pop());
    }

    const serve::LatencySummary latency = router.stats().latency();
    std::printf("served %llu requests across %zu shards: p50 %.2f ms, p99 %.2f ms\n",
                static_cast<unsigned long long>(latency.count), router.shard_count(),
                latency.p50_ms, latency.p99_ms);
    for (std::size_t s = 0; s < router.shard_count(); ++s) {
        const serve::LatencySummary shard = router.shard_stats(s).latency();
        const split::TrafficStats sent = router.shard_traffic(s);
        std::printf("  shard %zu: p50 %.2f ms, p99 %.2f ms, uplink %llu msgs / %llu B "
                    "(%zu feature maps per request come back)\n",
                    s, shard.p50_ms, shard.p99_ms,
                    static_cast<unsigned long long>(sent.messages),
                    static_cast<unsigned long long>(sent.bytes),
                    router.shard_map()[s].body_count);
    }
    if (want_stats) {
        std::printf("failover: %llu in-flight failovers, %llu reconnect retries (retry-max "
                    "%zu, backoff %lld..%lld ms)\n",
                    static_cast<unsigned long long>(router.failovers_total()),
                    static_cast<unsigned long long>(router.stats().retries()),
                    retry.max_attempts, static_cast<long long>(retry.base_backoff.count()),
                    static_cast<long long>(retry.max_backoff.count()));
        for (std::size_t s = 0; s < router.shard_count(); ++s) {
            const serve::ShardRouter::ReplicaStatus status = router.replica_status(s);
            std::printf("  shard %zu replicas: %zu/%zu healthy, %llu failovers, %llu "
                        "retries\n",
                        s, status.healthy, status.configured,
                        static_cast<unsigned long long>(router.shard_stats(s).failovers()),
                        static_cast<unsigned long long>(router.shard_stats(s).retries()));
        }
    }
    router.close();
    return 0;
}
