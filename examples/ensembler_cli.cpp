// ensembler_cli — the driver an adopter would actually script against.
//
// Subcommands:
//   train    fit the three stages on the synthetic CIFAR-10 analogue,
//            report accuracy through an ens::serve session (real wire
//            bytes + latency percentiles), optionally save the trained
//            deployment as a bundle directory (serve/bundle.hpp) that
//            `serve_daemon --bundle <dir>` boots directly
//              --n 6 --p 3 --sigma 0.1 --lambda 0.5 --epochs 2
//              --width 4 --image 16 --train 384 --seed 11
//              --wire f32|q16|q8 [--save bundle_dir]
//   attack   train a pipeline, then mount the paper's MIA against it
//              (same knobs) --adaptive | --best-of-n | --bruteforce
//   latency  print the Table III cost model for a given N/P/width/batch
//              --n 10 --p 4 --width 64 --image 32 --batch 128 --wire q8
//   help     this text
//
// Everything runs offline on synthetic data; see examples/quickstart.cpp
// for the API walkthrough and bench/ for the full experiment harnesses.

#include <cstdio>
#include <string>

#include "attack/brute_force.hpp"
#include "attack/mia.hpp"
#include "common/args.hpp"
#include "core/ensembler.hpp"
#include "data/synth_cifar10.hpp"
#include "latency/estimator.hpp"
#include "latency/profiles.hpp"
#include "serve/bundle.hpp"
#include "serve/service.hpp"
#include "split/codec.hpp"
#include "split/split_model.hpp"
#include "train/trainer.hpp"

namespace {

using namespace ens;

int usage(const char* program) {
    std::printf(
        "usage: %s <train|attack|latency|help> [--flag value]...\n"
        "  train    --n 6 --p 3 --sigma 0.1 --lambda 0.5 --epochs 2 --width 4\n"
        "           --image 16 --train 384 --seed 11 [--wire f32|q16|q8]\n"
        "           [--save bundle_dir]\n"
        "  attack   same knobs, plus --adaptive | --best-of-n | --bruteforce\n"
        "  latency  --n 10 --p 4 --width 64 --image 32 --batch 128 [--wire f32|q16|q8]\n",
        program);
    return 2;
}

struct TrainSetup {
    nn::ResNetConfig arch;
    core::EnsemblerConfig config;
    std::size_t train_size = 384;
    std::uint64_t seed = 11;
};

TrainSetup read_setup(const ArgParser& args) {
    TrainSetup setup;
    setup.arch.base_width = args.get_int("width", 4);
    setup.arch.image_size = args.get_int("image", 16);
    setup.arch.num_classes = 10;
    setup.config.num_networks = static_cast<std::size_t>(args.get_int("n", 6));
    setup.config.num_selected = static_cast<std::size_t>(args.get_int("p", 3));
    setup.config.noise_stddev = static_cast<float>(args.get_double("sigma", 0.1));
    setup.config.lambda = static_cast<float>(args.get_double("lambda", 0.5));
    const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 2));
    setup.config.stage1_options.epochs = epochs;
    setup.config.stage3_options.epochs = epochs;
    setup.seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
    setup.config.seed = setup.seed;
    setup.train_size = static_cast<std::size_t>(args.get_int("train", 384));
    return setup;
}

int reject_unknown(const ArgParser& args) {
    const auto unknown = args.unconsumed();
    if (unknown.empty()) {
        return 0;
    }
    for (const auto& flag : unknown) {
        std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    }
    return 2;
}

int parse_wire_format(const std::string& name, split::WireFormat& format) {
    if (!split::wire_format_from_name(name, format)) {
        std::fprintf(stderr, "unknown wire format '%s'\n", name.c_str());
        return 2;
    }
    return 0;
}

int cmd_train(const ArgParser& args) {
    const TrainSetup setup = read_setup(args);
    const std::string save_path = args.get_string("save", "");
    const std::string wire = args.get_string("wire", "f32");
    if (const int rc = reject_unknown(args)) return rc;
    split::WireFormat wire_format = split::WireFormat::f32;
    if (const int rc = parse_wire_format(wire, wire_format)) return rc;

    const data::SynthCifar10 train_set(setup.train_size, setup.seed + 1,
                                       setup.arch.image_size);
    const data::SynthCifar10 test_set(setup.train_size / 4, setup.seed + 2,
                                      setup.arch.image_size);

    std::printf("fitting Ensembler: N=%zu P=%zu sigma=%.3f lambda=%.2f width=%lld\n",
                setup.config.num_networks, setup.config.num_selected,
                setup.config.noise_stddev, setup.config.lambda,
                static_cast<long long>(setup.arch.base_width));
    core::Ensembler ensembler(setup.arch, setup.config);
    ensembler.fit(train_set);
    std::printf("selector (client secret, shown for demo): %s\n",
                ensembler.selector().to_string().c_str());

    // Deployment-style evaluation: all N bodies behind an InferenceService,
    // this client's bundle in a session, every feature map crossing the
    // wire codec.
    {
        serve::InferenceService service = serve::InferenceService::from_ensembler(ensembler);
        auto session =
            service.create_session(serve::SessionOptions{wire_format, std::nullopt});
        const float accuracy = train::evaluate_accuracy(
            [&](const Tensor& x) { return session->infer(x).logits; }, test_set, 32);
        const serve::LatencySummary latency = session->stats().latency();
        std::printf("test accuracy (served, wire=%s): %.3f\n",
                    split::wire_format_name(wire_format), accuracy);
        std::printf("served %llu requests: p50 %.1f ms  p99 %.1f ms  "
                    "uplink %llu B  downlink %llu B\n",
                    static_cast<unsigned long long>(latency.count), latency.p50_ms,
                    latency.p99_ms,
                    static_cast<unsigned long long>(session->uplink_stats().bytes),
                    static_cast<unsigned long long>(session->downlink_stats().bytes));
    }

    if (!save_path.empty()) {
        serve::save_bundle(save_path, ensembler);
        std::printf("deployment bundle written to %s (serve it with serve_daemon --bundle %s; "
                    "CLIENT.ens holds the secret selector and stays with the client)\n",
                    save_path.c_str(), save_path.c_str());
    }
    return 0;
}

int cmd_attack(const ArgParser& args) {
    TrainSetup setup = read_setup(args);
    const bool adaptive = args.has("adaptive");
    const bool best_of_n = args.has("best-of-n");
    const bool bruteforce = args.has("bruteforce");
    if (const int rc = reject_unknown(args)) return rc;

    const data::SynthCifar10 train_set(setup.train_size, setup.seed + 1,
                                       setup.arch.image_size);
    const data::SynthCifar10 victim_inputs(setup.train_size / 4, setup.seed + 2,
                                           setup.arch.image_size);
    const data::SynthCifar10 aux(setup.train_size / 2, setup.seed + 3,
                                 setup.arch.image_size);

    core::Ensembler ensembler(setup.arch, setup.config);
    ensembler.fit(train_set);
    const split::DeployedPipeline victim = ensembler.deployed();

    attack::MiaOptions mia_options;
    mia_options.shadow_options.epochs = 2;
    mia_options.decoder_options.epochs = 6;
    mia_options.wire_stats_weight = 0.0f;
    attack::ModelInversionAttack mia(setup.arch, mia_options);

    if (bruteforce) {
        const attack::BruteForceReport report = attack::brute_force_attack(
            mia, victim, aux, victim_inputs, ensembler.selector().indices());
        std::printf("subsets attacked: %zu of %llu\n", report.results.size(),
                    static_cast<unsigned long long>(report.search_space_size));
        std::printf("oracle-best SSIM %.3f; attacker pick SSIM %.3f; pick==oracle: %s\n",
                    report.oracle_best().outcome.ssim, report.attacker_pick().outcome.ssim,
                    report.aux_pick_matches_oracle ? "yes" : "no");
        return 0;
    }
    if (best_of_n || !adaptive) {
        const attack::BestOfN best = mia.attack_best_of_n(victim, aux, victim_inputs);
        std::printf("best-of-N single-body attack: SSIM %.3f (body %d), PSNR %.2f (body %d)\n",
                    best.best_ssim.ssim, best.best_ssim.body_index, best.best_psnr.psnr,
                    best.best_psnr.body_index);
    }
    if (adaptive) {
        const attack::AttackOutcome outcome =
            mia.attack_adaptive(victim.bodies, aux, victim_inputs, victim.transmit);
        std::printf("adaptive all-N attack: SSIM %.3f, PSNR %.2f\n", outcome.ssim, outcome.psnr);
    }
    return 0;
}

int cmd_latency(const ArgParser& args) {
    nn::ResNetConfig arch;
    arch.base_width = args.get_int("width", 64);
    arch.image_size = args.get_int("image", 32);
    arch.num_classes = 10;
    const auto n = static_cast<std::size_t>(args.get_int("n", 10));
    const auto p = static_cast<std::size_t>(args.get_int("p", 4));
    const auto batch = args.get_int("batch", 128);
    const std::string wire = args.get_string("wire", "f32");
    if (const int rc = reject_unknown(args)) return rc;

    split::WireFormat format = split::WireFormat::f32;
    if (const int rc = parse_wire_format(wire, format)) return rc;

    Rng rng(1);
    split::SplitModel parts = split::build_split_resnet18(arch, rng);
    latency::PipelineSpec spec;
    spec.client_head = parts.head.get();
    spec.server_body = parts.body.get();
    spec.client_tail = parts.tail.get();
    spec.input_shape = Shape{batch, 3, arch.image_size, arch.image_size};
    spec.tail_input_width =
        static_cast<std::int64_t>(p) * nn::resnet18_feature_width(arch);
    spec.num_server_nets = n;
    spec.bytes_per_element = static_cast<double>(split::wire_format_element_size(format));

    const latency::LatencyBreakdown cost = latency::estimate_latency(
        spec, latency::raspberry_pi_profile(), latency::a6000_profile(),
        latency::wired_lan_profile());
    std::printf("N=%zu P=%zu width=%lld batch=%lld wire=%s\n", n, p,
                static_cast<long long>(arch.base_width), static_cast<long long>(batch),
                wire.c_str());
    std::printf("client %.2fs  server %.2fs  communication %.2fs  total %.2fs\n", cost.client_s,
                cost.server_s, cost.communication_s, cost.total_s());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const ArgParser args(argc, argv);
        if (args.command() == "train") return cmd_train(args);
        if (args.command() == "attack") return cmd_attack(args);
        if (args.command() == "latency") return cmd_latency(args);
        return usage(args.program().c_str());
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
