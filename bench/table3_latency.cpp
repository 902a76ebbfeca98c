// Table III — time to run a 128-image batch through Standard CI, Ensembler
// (N = 10) and STAMP (§IV-D).
//
// The headline table is purely analytical: it builds the paper's width-64
// ResNet-18 at the h=1/t=1 split, counts per-layer FLOPs and serialized
// feature bytes, and evaluates the calibrated edge/cloud/link cost model
// (src/latency/profiles.cpp documents every calibration constant). No
// training needed, so it always runs at the paper's full width regardless
// of ENS_BENCH_SCALE. Measured serving cost lives in perfbench (the
// ens_saturate / ens_lockstep workloads), whose repeated runs can resolve
// a change; a few in-process rounds here could not.

#include <cstdio>

#include "bench_common.hpp"
#include "latency/estimator.hpp"
#include "latency/profiles.hpp"
#include "latency/stamp.hpp"
int main() {
    using namespace ens;

    nn::ResNetConfig arch;  // paper configuration
    arch.base_width = 64;
    arch.image_size = 32;
    arch.num_classes = 10;
    arch.include_maxpool = true;

    Rng rng(1);
    split::SplitModel parts = split::build_split_resnet18(arch, rng);

    latency::PipelineSpec spec;
    spec.client_head = parts.head.get();
    spec.server_body = parts.body.get();
    spec.client_tail = parts.tail.get();
    spec.input_shape = Shape{128, 3, 32, 32};
    spec.tail_input_width = nn::resnet18_feature_width(arch);
    spec.num_server_nets = 1;

    const auto edge = latency::raspberry_pi_profile();
    const auto cloud = latency::a6000_profile();
    const auto link = latency::wired_lan_profile();

    const latency::LatencyBreakdown standard = latency::estimate_latency(spec, edge, cloud, link);

    latency::PipelineSpec ensembler_spec = spec;
    ensembler_spec.num_server_nets = 10;
    ensembler_spec.tail_input_width = 4 * nn::resnet18_feature_width(arch);  // P=4 concat
    const latency::LatencyBreakdown ensembler =
        latency::estimate_latency(ensembler_spec, edge, cloud, link);

    const latency::LatencyBreakdown stamp = latency::estimate_stamp(spec, edge, cloud, link);

    std::printf("# Table III: seconds per 128-image ResNet-18 batch "
                "(paper values in parentheses)\n\n");
    std::printf("| Name | Client | Server | Communication | Total |\n");
    std::printf("|---|---|---|---|---|\n");
    std::printf("| Standard CI | %.2f (0.66) | %.2f (0.98) | %.2f (2.30) | %.2f (3.94) |\n",
                standard.client_s, standard.server_s, standard.communication_s,
                standard.total_s());
    std::printf("| Ensembler   | %.2f (0.66) | %.2f (1.02) | %.2f (2.45) | %.2f (4.13) |\n",
                ensembler.client_s, ensembler.server_s, ensembler.communication_s,
                ensembler.total_s());
    std::printf("| STAMP       | -           | -           | -           | %.1f (309.7) |\n",
                stamp.total_s());

    const double overhead = 100.0 * (ensembler.total_s() / standard.total_s() - 1.0);
    std::printf("\nderived: Ensembler total overhead = %.1f%% (paper: 4.8%%); "
                "communication share of the overhead = %.0f%%\n",
                overhead,
                100.0 * (ensembler.communication_s - standard.communication_s) /
                    (ensembler.total_s() - standard.total_s()));
    std::printf("derived: STAMP / Standard CI = %.0fx (paper: %.0fx)\n",
                stamp.total_s() / standard.total_s(), 309.7 / 3.94);
    return 0;
}
