// Deploying Ensembler across non-colluding servers — the multi-server
// variant sketched in §III-D: because each server net is independent, the
// N bodies can be spread across several providers; no single one then even
// holds all the nets a brute-force attacker would need.
//
// Two in-process shard hosts (serve::ReactorHost, each behind its own
// loopback listener) serve the contiguous halves ShardPlan::blocks(4, 2) of
// the bodies. A serve::ShardRouter sends the client's noised features to
// both over real TCP sockets, merges the returned feature maps in body
// order and combines them with the client's secret Selector. The example
// checks the logits against the single-service ens::serve deployment, then
// prints each shard link's traffic and the §III-D collusion ledger of the
// plan.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "../tests/serve/serve_harness.hpp"
#include "core/ensembler.hpp"
#include "data/synth_cifar10.hpp"
#include "serve/service.hpp"
#include "serve/shard_router.hpp"
#include "split/multiparty.hpp"
#include "split/tap_channel.hpp"
#include "split/tcp_channel.hpp"

int main() {
    using namespace ens;

    const data::SynthCifar10 train_set(192, 21, 16);
    const data::SynthCifar10 test_set(32, 22, 16);

    nn::ResNetConfig arch;
    arch.base_width = 4;
    arch.image_size = 16;
    arch.num_classes = 10;

    core::EnsemblerConfig config;
    config.num_networks = 4;
    config.num_selected = 2;
    config.stage1_options.epochs = 2;
    config.stage3_options.epochs = 2;
    config.seed = 5;

    core::Ensembler ensembler(arch, config);
    ensembler.fit(train_set);

    // The single-service deployment is the reference; building it also
    // puts every client and server layer in eval mode.
    serve::InferenceService service = serve::InferenceService::from_ensembler(ensembler);
    auto session = service.create_session();

    // Two "cloud providers", each hosting a contiguous half of the bodies
    // on a ReactorHost behind its own loopback listener.
    std::vector<nn::Layer*> bodies;
    for (std::size_t i = 0; i < config.num_networks; ++i) {
        bodies.push_back(&ensembler.member_body(i));
    }
    const split::ShardPlan plan = split::ShardPlan::blocks(config.num_networks, 2);
    const auto hosts = serve::harness::serve_shard_plan(bodies, plan);
    std::vector<std::shared_ptr<split::TapLog>> taps;
    std::vector<std::unique_ptr<split::Channel>> links;
    for (const auto& host : hosts) {
        taps.push_back(std::make_shared<split::TapLog>());
        links.push_back(std::make_unique<split::TapChannel>(
            split::tcp_connect("127.0.0.1", host->port()), taps.back()));
    }

    // The client keeps its head, noise, tail and secret Selector; the
    // providers only ever see the noised features.
    serve::ShardRouter router(std::move(links), ensembler.client_head(),
                              &ensembler.client_noise(), ensembler.client_tail(),
                              ensembler.selector());
    const data::Batch batch = data::materialize(test_set, 0, 8);
    const Tensor logits = router.infer(batch.images).logits;
    router.close();

    const serve::InferenceResult reference = session->infer(batch.images);
    float max_abs_diff = 0.0f;
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
        max_abs_diff = std::max(max_abs_diff, std::abs(logits.at(i) - reference.logits.at(i)));
    }

    std::printf("=== multiparty split inference (%zu shard hosts over loopback TCP) ===\n",
                plan.server_count());
    std::printf("selector: %s  (secret; servers only see which bytes arrive)\n",
                ensembler.selector().to_string().c_str());
    std::printf("sharded wire == single-service serve: max |delta logits| = %.2e\n",
                max_abs_diff);
    std::printf("single-service reference: %llu B up, %llu B down, %.1f ms end-to-end\n",
                static_cast<unsigned long long>(session->uplink_stats().bytes),
                static_cast<unsigned long long>(session->downlink_stats().bytes),
                reference.total_ms);
    for (std::size_t s = 0; s < plan.server_count(); ++s) {
        std::printf("shard %zu traffic: sent %llu B in %zu frames, received %llu B in %zu "
                    "frames (handshake + one reply per body)\n",
                    s, static_cast<unsigned long long>(taps[s]->sent_bytes()),
                    taps[s]->sent_count(),
                    static_cast<unsigned long long>(taps[s]->received_bytes()),
                    taps[s]->received_count());
    }

    // §III-D collusion ledger for this plan and selection.
    const std::vector<std::size_t>& selected = ensembler.selector().indices();
    for (std::size_t s = 0; s < plan.server_count(); ++s) {
        const std::vector<std::size_t> held = split::coalition_bodies(plan, {s});
        std::printf("shard %zu holds bodies %zu..%zu: %llu candidate subsets, %s\n", s,
                    held.front(), held.back(),
                    static_cast<unsigned long long>(split::coalition_subset_count(plan, {s})),
                    split::coalition_holds_full_selection(plan, selected, {s})
                        ? "holds the whole selection"
                    : split::coalition_holds_selected_body(plan, selected, {s})
                        ? "holds part of the selection"
                        : "holds no selected body");
    }
    std::printf("smallest coalition covering the selection: %zu of %zu servers\n",
                split::min_covering_coalition(plan, selected), plan.server_count());
    return 0;
}
