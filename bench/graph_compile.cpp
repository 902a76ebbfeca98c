// Graph-compiler payoff trajectory: eval-mode forward latency of
// uncompiled vs compiled (nn/compile.hpp) layer graphs, over the shapes a
// split-ResNet server body actually serves — conv-BN-ReLU chains and
// BasicBlock stacks at the split-point feature geometry. The BN fold
// removes a whole per-channel normalization sweep per conv and the
// epilogue fusion removes the standalone activation pass (and its
// intermediate tensor), so `speedup_uncompiled` of the compiled variant
// is the headline number ServeConfig::optimize buys a deployment.
//
// Emits BENCH_graph.json (bench::JsonRows):
//   row = {graph, variant, batch, channels, image, reps, ms,
//          speedup_uncompiled, rewrites}
// Variants:
//   uncompiled - the graph as a bundle restores it, prepare_inference'd
//                (packed GEMM caches warm — this is the PR-7 serving path)
//   compiled   - the same weights through compile_for_inference (BN
//                folded, ReLUs fused, repacked)

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/checkpoint.hpp"
#include "nn/compile.hpp"
#include "nn/conv2d.hpp"
#include "nn/resblock.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace {

using ens::Rng;
using ens::Shape;
using ens::Tensor;
namespace nn = ens::nn;

struct GraphSpec {
    std::string label;
    std::int64_t batch, channels, image;
    int depth;        // conv-BN-ReLU triples or BasicBlocks
    bool residual;    // false: plain chain; true: BasicBlock stack
};

std::vector<GraphSpec> graphs_for(ens::bench::Scale scale) {
    // Channels/extent follow the split-ResNet body geometry (width w at a
    // 16px split for CIFAR-sized inputs); tiny keeps the same structure at
    // toy width so the Release smoke stays fast.
    if (scale == ens::bench::Scale::kTiny) {
        return {
            {"conv-bn-relu-w8", 2, 8, 8, 2, false},
            {"basicblock-w8", 2, 8, 8, 2, true},
        };
    }
    std::vector<GraphSpec> graphs = {
        {"conv-bn-relu-w32", 4, 32, 16, 3, false},
        {"conv-bn-relu-w64", 4, 64, 16, 3, false},
        {"basicblock-w32", 4, 32, 16, 2, true},
        {"basicblock-w64", 4, 64, 16, 2, true},
    };
    if (scale == ens::bench::Scale::kFull) {
        graphs.push_back({"conv-bn-relu-w64-32px", 8, 64, 32, 4, false});
        graphs.push_back({"basicblock-w64-32px", 8, 64, 32, 4, true});
    }
    return graphs;
}

std::unique_ptr<nn::Sequential> build_graph(const GraphSpec& spec, std::uint64_t seed) {
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    for (int d = 0; d < spec.depth; ++d) {
        if (spec.residual) {
            net->emplace<nn::BasicBlock>(spec.channels, spec.channels, /*stride=*/1, rng);
        } else {
            net->emplace<nn::Conv2d>(spec.channels, spec.channels, /*kernel=*/3, /*stride=*/1,
                                     /*padding=*/1, rng);
            net->emplace<nn::BatchNorm2d>(spec.channels);
            net->emplace<nn::ReLU>();
        }
    }
    return net;
}

double time_ms(int reps, const std::function<void()>& fn) {
    fn();  // warm-up (first-touch, pack caches, pool spin-up)
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        fn();
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
}

}  // namespace

int main() {
    const ens::bench::Scale scale = ens::bench::current_scale();
    ens::bench::JsonRows json("graph_compile");

    std::printf("Graph-compiler bench (scale=%s)\n", ens::bench::scale_name(scale));
    std::printf("| graph | variant | ms | vs uncompiled | rewrites |\n");
    ens::bench::print_rule(5);

    const int reps = scale == ens::bench::Scale::kTiny ? 10
                   : scale == ens::bench::Scale::kSmall ? 30
                                                        : 60;
    Rng data_rng(0x6C0);
    for (const GraphSpec& spec : graphs_for(scale)) {
        const Shape input_shape{spec.batch, spec.channels, spec.image, spec.image};

        // BN-warm one instance, then clone its exact state into the graph
        // the compiler consumes — both variants serve identical weights.
        auto uncompiled = build_graph(spec, 0xC0DE);
        uncompiled->set_training(true);
        for (int i = 0; i < 3; ++i) {
            uncompiled->forward(Tensor::randn(input_shape, data_rng));
        }
        uncompiled->set_training(false);

        nn::LayerPtr twin = build_graph(spec, 0xC0DE);
        {
            std::stringstream state;
            nn::save_state(*uncompiled, state);
            nn::load_state(*twin, state);
        }
        twin->set_training(false);
        nn::CompileReport report;
        nn::LayerPtr compiled = nn::compile_for_inference(std::move(twin), &report);
        std::size_t rewrites = 0;
        for (const auto& pass : report.passes) {
            rewrites += pass.rewrites;
        }

        uncompiled->prepare_inference();  // packed caches warm on BOTH paths

        const Tensor input = Tensor::randn(input_shape, data_rng);
        const double uncompiled_ms = time_ms(reps, [&] { uncompiled->forward(input); });
        const double compiled_ms = time_ms(reps, [&] { compiled->forward(input); });

        struct Variant {
            const char* name;
            double ms;
        };
        for (const Variant& v :
             {Variant{"uncompiled", uncompiled_ms}, Variant{"compiled", compiled_ms}}) {
            const double speedup = v.ms > 0.0 ? uncompiled_ms / v.ms : 0.0;
            std::printf("| %s | %s | %.4f | %.2fx | %zu |\n", spec.label.c_str(), v.name, v.ms,
                        speedup, rewrites);
            json.row()
                .field("graph", spec.label)
                .field("variant", std::string(v.name))
                .field("batch", static_cast<double>(spec.batch))
                .field("channels", static_cast<double>(spec.channels))
                .field("image", static_cast<double>(spec.image))
                .field("reps", static_cast<double>(reps))
                .field("ms", v.ms)
                .field("speedup_uncompiled", speedup)
                .field("rewrites", rewrites);
        }
    }

    json.write("BENCH_graph.json");
    return 0;
}
