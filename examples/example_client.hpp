#pragma once
// Shared client-half plumbing for the example client (sharded_client) and
// serve_daemon. The client resolves its private artifacts — from the
// bundle's secret CLIENT.ens with --bundle, or derived from the demo seeds
// in lockstep with serve_daemon. Keeping the derivation here means a
// change to the demo models cannot silently desynchronize the client from
// the daemon (or from serve_daemon --save-bundle, which must write exactly
// what the demo path derives).
//
// Error convention of the example drivers: exit 2 on flag misuse, exit 1
// on an unloadable bundle.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "core/selector.hpp"
#include "nn/linear.hpp"
#include "nn/resnet.hpp"
#include "nn/sequential.hpp"
#include "serve/bundle.hpp"
#include "serve/retry.hpp"
#include "serve/types.hpp"
#include "split/codec.hpp"
#include "split/split_model.hpp"

namespace ens::example_client {

/// Body k of the demo deployment. Must stay in lockstep with
/// serve_daemon.cpp (see its build_part): body k comes from the split
/// ResNet-18 built with Rng(seed + k), and the k = 0 build also yields the
/// client's head.
inline split::SplitModel build_part(const nn::ResNetConfig& arch, std::uint64_t seed,
                                    std::size_t k) {
    Rng rng(seed + k);
    return split::build_split_resnet18(arch, rng);
}

inline split::WireFormat parse_wire(const std::string& name) {
    split::WireFormat format = split::WireFormat::f32;
    if (!split::wire_format_from_name(name, format)) {
        std::fprintf(stderr, "unknown --wire %s (want f32|q16|q8)\n", name.c_str());
        std::exit(2);
    }
    return format;
}

/// Parses a replicated shard list: ','-separated shards, '|'-separated
/// replicas within one shard, each entry "host:port". A plain
/// "h:1,h:2,h:3" is three single-replica shards, so the pre-replication
/// --shards syntax still means what it always did. Exits 2 (flag-misuse
/// convention) on any malformed entry, naming `flag` in the message.
inline std::vector<std::vector<serve::BundleReplicaEndpoint>> parse_replicated_shards(
    const std::string& spec, const char* flag) {
    std::vector<std::vector<serve::BundleReplicaEndpoint>> shards;
    std::size_t shard_start = 0;
    while (shard_start <= spec.size()) {
        std::size_t comma = spec.find(',', shard_start);
        if (comma == std::string::npos) {
            comma = spec.size();
        }
        const std::string group = spec.substr(shard_start, comma - shard_start);
        std::vector<serve::BundleReplicaEndpoint> replicas;
        std::size_t start = 0;
        while (start <= group.size()) {
            std::size_t bar = group.find('|', start);
            if (bar == std::string::npos) {
                bar = group.size();
            }
            const std::string entry = group.substr(start, bar - start);
            const std::size_t colon = entry.rfind(':');
            if (entry.empty() || colon == std::string::npos || colon == 0 ||
                colon + 1 == entry.size()) {
                std::fprintf(stderr, "bad --%s entry \"%s\" (want host:port)\n", flag,
                             entry.c_str());
                std::exit(2);
            }
            try {
                // Full consumption + range check: "7070xyz" and 70707 must
                // be loud flag errors, not silent connections to the wrong
                // port.
                const std::string port_text = entry.substr(colon + 1);
                std::size_t parsed = 0;
                const unsigned long port = std::stoul(port_text, &parsed);
                if (parsed != port_text.size() || port == 0 || port > 65535) {
                    throw std::out_of_range("port");
                }
                replicas.push_back(serve::BundleReplicaEndpoint{
                    entry.substr(0, colon), static_cast<std::uint16_t>(port)});
            } catch (const std::exception&) {
                std::fprintf(stderr, "bad --%s port in \"%s\" (want 1-65535)\n", flag,
                             entry.c_str());
                std::exit(2);
            }
            start = bar + 1;
        }
        shards.push_back(std::move(replicas));
        shard_start = comma + 1;
    }
    return shards;
}

/// Applies the shared retry flags (--retry-max, --retry-backoff-ms) on top
/// of `retry` (which starts from defaults or from a bundle's recorded
/// policy). Exits 2 on out-of-range values.
inline void apply_retry_flags(ArgParser& args, serve::RetryPolicy& retry) {
    if (args.has("retry-max")) {
        const std::int64_t value = args.get_int("retry-max", 0);
        if (value < 1 || value > 1000) {
            std::fprintf(stderr, "--retry-max must be in [1, 1000]\n");
            std::exit(2);
        }
        retry.max_attempts = static_cast<std::size_t>(value);
    }
    if (args.has("retry-backoff-ms")) {
        const std::int64_t value = args.get_int("retry-backoff-ms", 0);
        if (value < 0 || value > 3600 * 1000) {
            std::fprintf(stderr, "--retry-backoff-ms must be in [0, 3600000]\n");
            std::exit(2);
        }
        retry.base_backoff = std::chrono::milliseconds(value);
        if (retry.max_backoff < retry.base_backoff) {
            retry.max_backoff = retry.base_backoff;
        }
    }
}

/// The demo client half, derived from the seeds: head from the k = 0
/// build, a tail sized for the P selected feature maps, and the secret
/// P-of-N selector. serve_daemon --save-bundle writes EXACTLY this, so
/// demo-mode clients and bundle-mode clients of a demo bundle agree.
inline serve::ClientArtifacts derive_demo_client(const nn::ResNetConfig& arch,
                                                 std::uint64_t seed, std::size_t num_bodies,
                                                 std::size_t num_selected,
                                                 std::uint64_t selector_seed) {
    serve::ClientArtifacts client;
    client.head = std::move(build_part(arch, seed, 0).head);
    client.head->set_training(false);
    Rng tail_rng(seed ^ 0x7A11);
    auto tail = std::make_unique<nn::Sequential>();
    tail->emplace<nn::Linear>(
        static_cast<std::int64_t>(num_selected) * nn::resnet18_feature_width(arch),
        arch.num_classes, tail_rng);
    tail->set_training(false);
    client.tail = std::move(tail);
    Rng selector_rng(selector_seed);
    client.selector = core::Selector::random(num_bodies, num_selected, selector_rng);
    return client;
}

/// Resolves the private client half (head, optional noise, tail, secret
/// selector) and the effective wire format. With --bundle: loads the
/// secret CLIENT.ens, rejects the demo-model flags as contradictions, and
/// lets the bundle's recorded default wire format apply unless --wire was
/// given. Without: derives the demo halves from the seeds, with --total
/// bodies (default `default_total`). Also performs the unknown-flag sweep,
/// so call it after every other flag has been consumed.
inline serve::ClientArtifacts resolve_client_artifacts(ArgParser& args,
                                                       const std::string& bundle_dir,
                                                       std::int64_t default_total,
                                                       std::int64_t image_size,
                                                       bool has_wire_flag,
                                                       split::WireFormat& wire) {
    serve::ClientArtifacts client;
    if (!bundle_dir.empty()) {
        for (const char* flag :
             {"seed", "width", "classes", "total", "select", "selector-seed"}) {
            if (args.has(flag)) {
                std::fprintf(stderr,
                             "--%s conflicts with --bundle (the bundle fixes the deployment)\n",
                             flag);
                std::exit(2);
            }
        }
        for (const std::string& flag : args.unconsumed()) {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            std::exit(2);
        }
        try {
            client = serve::load_bundle_client(bundle_dir);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "cannot load client bundle from %s: %s\n", bundle_dir.c_str(),
                         e.what());
            std::exit(1);
        }
        if (!has_wire_flag) {
            wire = client.default_wire_format;
        }
        return client;
    }

    const auto num_bodies = static_cast<std::size_t>(args.get_int("total", default_total));
    const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 2000));
    const auto num_selected = static_cast<std::size_t>(
        args.get_int("select", static_cast<std::int64_t>(num_bodies)));
    const std::uint64_t selector_seed =
        static_cast<std::uint64_t>(args.get_int("selector-seed", 7));
    nn::ResNetConfig arch;
    arch.base_width = args.get_int("width", 4);
    arch.image_size = image_size;
    arch.num_classes = args.get_int("classes", 10);
    for (const std::string& flag : args.unconsumed()) {
        std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
        std::exit(2);
    }
    if (num_selected == 0 || num_selected > num_bodies) {
        std::fprintf(stderr, "--select must be in [1, --total]\n");
        std::exit(2);
    }
    return derive_demo_client(arch, seed, num_bodies, num_selected, selector_seed);
}

/// Prints one completed pipelined result (classes derived from the logits,
/// so it works for any deployment).
inline void report_result(const serve::InferenceResult& result) {
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < result.logits.dim(1); ++c) {
        if (result.logits.at(0, c) > result.logits.at(0, best)) {
            best = c;
        }
    }
    std::printf("request %llu: argmax class %lld, round trip %.2f ms\n",
                static_cast<unsigned long long>(result.request_id),
                static_cast<long long>(best), result.total_ms);
}

}  // namespace ens::example_client
