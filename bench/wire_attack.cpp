// Wire-attack bench: the §II-B eavesdropper against a real serving host,
// swept over the deployment knobs an operator actually turns.
//
// Per cell (wire format x in-flight window x graph-compiled hosting) this
// bench:
//   1. boots a BodyHost purely from the trained bundle (optionally through
//      the inference graph compiler) and serves it from an in-thread
//      reactor; the tap is client-side, so the captured bytes are the
//      ones a separate host process would put on the wire,
//   2. runs a tapped RemoteSession over loopback TCP submitting the victim
//      set pipelined at the cell's window depth,
//   3. parses the TapChannel capture into attacker evidence
//      (attack::WireCapture) and mounts the capture-replay MIA: the
//      adaptive all-N inversion (headline PSNR/SSIM — LOWER is a stronger
//      defense) plus a |P|-restricted §III-D selector brute force
//      (selector_identified should hover at chance).
//
// The attacker here is the strengthened one: wire-moment matching runs on
// the moments of the CAPTURED bytes, so quantized cells attack through
// their own dequantization drift — the evidence a real semi-honest server
// holds, not the pre-codec f32 view of the in-proc benches.
//
// Output: BENCH_wire_attack.json with one row per cell
//   {wire, inflight, optimize, psnr, ssim, attack_accuracy,
//    selector_identified, uplink_bytes, downlink_bytes, search_attacks}
// CI smokes it at tiny scale (bench_wire_attack_smoke).

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "../tests/serve/serve_harness.hpp"
#include "attack/wire_harness.hpp"
#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/ensembler.hpp"
#include "serve/bundle.hpp"
#include "split/tcp_channel.hpp"

namespace {

using namespace ens;

std::vector<Tensor> make_victim_batches(const data::Dataset& victims, std::size_t cap,
                                        std::size_t batch_size) {
    std::vector<Tensor> batches;
    const std::size_t total = std::min(cap, victims.size());
    for (std::size_t cursor = 0; cursor < total;) {
        const std::size_t take = std::min(batch_size, total - cursor);
        batches.push_back(data::materialize(victims, cursor, take).images);
        cursor += take;
    }
    return batches;
}

}  // namespace

int main() {
    const bench::Scale scale = bench::current_scale();
    std::printf("# Wire attack: capture-replay MIA vs a bundle-booted host (scale=%s)\n",
                bench::scale_name(scale));

    bench::Scenario scenario = bench::make_cifar10(scale);
    const std::size_t num_bodies = scale == bench::Scale::kTiny ? 3 : 4;

    core::EnsemblerConfig config;
    config.num_networks = num_bodies;
    config.num_selected = 2;
    config.stage1_options = bench::train_options(scale);
    config.stage3_options = bench::train_options(scale);
    config.seed = 77;

    Stopwatch watch;
    core::Ensembler ensembler(scenario.arch, config);
    ensembler.fit(*scenario.train);
    std::fprintf(stderr, "[wire_attack] ensembler trained (N=%zu) in %.0fs\n", num_bodies,
                 watch.elapsed_seconds());

    const std::string bundle_dir = "wire_attack_bundle";
    std::filesystem::remove_all(bundle_dir);
    std::filesystem::create_directories(bundle_dir);
    serve::save_bundle(bundle_dir, ensembler);

    ensembler.client_head().set_training(false);
    ensembler.client_noise().set_training(false);
    ensembler.client_tail().set_training(false);
    const split::DeployedPipeline victim = ensembler.deployed();

    attack::MiaOptions mia_options = bench::mia_options(scale);
    // The wire attacker's whole edge is the traffic it recorded: match
    // shadow moments against the CAPTURED bytes (drift included), unlike
    // the paper-faithful CE-only attacker of Tables I/II.
    mia_options.wire_stats_weight = 1.0f;

    const std::vector<Tensor> batches = make_victim_batches(
        *scenario.test, mia_options.eval_samples, mia_options.eval_batch);

    attack::BruteForceOptions search;
    search.min_subset_size = config.num_selected;
    search.max_subset_size = config.num_selected;
    search.max_subsets = scale == bench::Scale::kTiny ? 3 : 6;

    const std::vector<std::size_t> depths =
        scale == bench::Scale::kTiny ? std::vector<std::size_t>{4}
                                     : std::vector<std::size_t>{1, 4};

    bench::JsonRows json("wire_attack");
    json.meta("bodies", static_cast<double>(num_bodies));
    json.meta("selected", static_cast<double>(config.num_selected));

    std::printf("\n| wire | inflight | optimize | PSNR | SSIM | attack acc | selector found |\n");
    bench::print_rule(7);

    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        for (const std::size_t inflight : depths) {
            for (const bool optimize : {false, true}) {
                watch.reset();
                serve::harness::ReactorFixture host(serve::BodyHost::from_bundle(
                    bundle_dir, 0, static_cast<std::size_t>(-1), optimize));
                attack::VictimTrace trace = attack::drive_victim_session(
                    split::tcp_connect("127.0.0.1", host.port()), ensembler.client_head(),
                    &ensembler.client_noise(), ensembler.client_tail(), ensembler.selector(),
                    batches, wire, inflight);
                const attack::WireCapture capture = attack::WireCapture::parse(*trace.tap);
                const double capture_s = watch.elapsed_seconds();

                watch.reset();
                attack::WireHarness harness(scenario.arch, mia_options);
                const attack::WireAttackReport report =
                    harness.attack(capture, capture.observations(batches), victim.bodies,
                                   *scenario.aux, ensembler.selector().indices(), search);

                std::printf("| %-4s | %8zu | %8d | %5.2f | %5.3f | %9.3f | %14s |\n",
                            split::wire_format_name(wire), inflight, optimize ? 1 : 0,
                            report.adaptive.psnr, report.adaptive.ssim,
                            report.adaptive.shadow_aux_accuracy,
                            report.selector_identified ? "yes" : "no");
                std::fprintf(stderr,
                             "[wire_attack] %s/depth%zu/opt%d: capture %.0fs attack %.0fs\n",
                             split::wire_format_name(wire), inflight, optimize ? 1 : 0,
                             capture_s, watch.elapsed_seconds());

                json.row()
                    .field("wire", std::string(split::wire_format_name(wire)))
                    .field("inflight", inflight)
                    .field("optimize", static_cast<std::size_t>(optimize ? 1 : 0))
                    .field("psnr", static_cast<double>(report.adaptive.psnr))
                    .field("ssim", static_cast<double>(report.adaptive.ssim))
                    .field("attack_accuracy",
                           static_cast<double>(report.adaptive.shadow_aux_accuracy))
                    .field("selector_identified",
                           static_cast<std::size_t>(report.selector_identified ? 1 : 0))
                    .field("uplink_bytes", static_cast<std::size_t>(report.uplink_bytes))
                    .field("downlink_bytes", static_cast<std::size_t>(report.downlink_bytes))
                    .field("search_attacks", report.selector_search.results.size());
            }
        }
    }

    std::printf("\nLower PSNR/SSIM = stronger defense at the wire; selector_identified "
                "should match chance (1/%llu).\n",
                static_cast<unsigned long long>(
                    attack::subset_search_space(num_bodies, config.num_selected,
                                                config.num_selected)));
    json.write("BENCH_wire_attack.json");
    return 0;
}
