// GEMM micro-kernel trajectory: naive reference vs the blocked/packed
// kernel, across square sizes and the GEMM shapes the split-ResNet bodies
// actually run (conv-as-GEMM is [out_ch, patch] @ [patch, positions]; the
// tail Linear is [batch, features] @ [features, classes]^T).
//
// Emits BENCH_kernels.json (schema in docs/BENCHMARKS.md):
//   row = {shape, variant, isa, m, n, k, reps, ms, gflops, speedup_naive}
// Variants:
//   naive      - retained i-k-j reference (ens::gemm_naive), serial
//   blocked    - blocked/register-tiled kernel, serial, packs per call
//   blocked_mt - same kernel with parallel i-strip tiling on the pool
//   packed     - weights pre-packed once (the serving path after
//                prepare_inference), activations packed per call, parallel
//   packed_t   - the same product computed transposed, C^T = B^T A^T:
//                weights pre-packed as the B operand, activations packed
//                per call as a transposed A, parallel. nn::Conv2d runs
//                this below kNR output positions (n < kNR here), where
//                packed wastes most of each register tile on padding
// `isa` names the micro-kernel a row ran. blocked/blocked_mt run the
// dispatched one (kernel_isa()); packed/packed_t repeat once per micro-
// kernel this host can run (kernel::detail::host_isas()), fastest first;
// naive and the lowering rows run none and read "none".
//
// Conv lowering rows time the activation side of one body conv for one
// image, serial: row = {shape, variant, isa, m, n, k, reps, ms,
// us_per_image, speedup_im2col}, with m = C_out, n = output positions,
// k = patch.
//   lower_im2col - im2col into a col matrix, then pack_b_into (or, below
//                  kNR positions, pack_a_into of col^T)
//   lower_direct - pack_conv_b_into / pack_conv_a_into straight from the
//                  image, what nn::Conv2d::forward runs
//
// The CI acceptance signal is speedup_naive of blocked/packed at the
// >= 256^3 shapes, so every scale (including tiny, which the Release smoke
// runs) keeps the 256^3 row.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace {

using ens::Rng;
using ens::Shape;
using ens::Tensor;
namespace kernel = ens::kernel;

struct ShapeSpec {
    std::string label;
    std::int64_t m, n, k;
};

std::vector<ShapeSpec> shapes_for(ens::bench::Scale scale) {
    // Body shapes: width-w ResNet body conv3x3 at its wire feature map
    // ([w, 16, 16] at the paper's CIFAR split) and the tail Linear over a
    // coalesced batch. Square shapes anchor the scaling curve; 256^3 is the
    // acceptance gate and survives every scale.
    std::vector<ShapeSpec> shapes = {
        {"conv3x3-w8", 8, 256, 72},        // [8, 8*9] @ [72, 16*16]
        {"conv3x3-w64", 64, 256, 576},     // [64, 64*9] @ [576, 16*16]
        {"conv3x3-w16-s3", 64, 16, 576},   // width-16 stage 3: 4x4 map, n = kNR
        {"conv3x3-w16-s4", 128, 4, 1152},  // width-16 stage 4: 2x2 map, n < kNR
        {"tail-linear", 32, 10, 640},      // [batch, 10*width] @ W^T
        {"square-64", 64, 64, 64},
        {"square-128", 128, 128, 128},
        {"square-256", 256, 256, 256},
    };
    if (scale != ens::bench::Scale::kTiny) {
        shapes.push_back({"conv3x3-w64-32px", 64, 1024, 576});
        shapes.push_back({"square-384", 384, 384, 384});
        shapes.push_back({"square-512", 512, 512, 512});
    }
    return shapes;
}

/// One ResNet-18 width-16 body conv at the paper's CIFAR split (stage-1
/// maps are 16x16); `down` rows are each stage's stride-2 first conv.
struct LoweringSpec {
    std::string label;
    std::int64_t c_in, c_out, hw, stride;
};

const std::vector<LoweringSpec> kLoweringShapes = {
    {"lower-w16-s1", 16, 16, 16, 1},       {"lower-w16-s2-down", 16, 32, 16, 2},
    {"lower-w16-s2", 32, 32, 8, 1},        {"lower-w16-s3", 64, 64, 4, 1},
    {"lower-w16-s4-down", 64, 128, 4, 2},  {"lower-w16-s4", 128, 128, 2, 1},
};

struct Variant {
    const char* name;
    const char* isa;
    std::function<void()> run;
};

double time_ms(int reps, const std::function<void()>& fn) {
    fn();  // warm-up (first-touch, pack scratch growth, pool spin-up)
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
    ens::bench::JsonRows json("kernels");
    json.meta("isa", kernel::kernel_isa());
    json.meta("mr", static_cast<double>(kernel::kMR));
    json.meta("nr", static_cast<double>(kernel::kNR));

    std::printf("GEMM micro-kernel bench (isa=%s, scale=%s)\n", kernel::kernel_isa(),
                ens::bench::scale_name(scale));
    std::printf("| shape | variant | isa | m | n | k | ms | GFLOP/s | vs naive |\n");
    ens::bench::print_rule(9);

    Rng rng(0xBE9C);
    for (const ShapeSpec& s : shapes_for(scale)) {
        const Tensor a = Tensor::randn(Shape{s.m, s.k}, rng, 0.0f, 1.0f);
        const Tensor b = Tensor::randn(Shape{s.k, s.n}, rng, 0.0f, 1.0f);
        Tensor c(Shape{s.m, s.n});
        const double flop = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) *
                            static_cast<double>(s.k);
        // Budget ~80 MFLOP of naive work per variant (a few repetitions of
        // the largest shapes, many of the small ones), min 2 reps.
        const int reps = std::max(2, static_cast<int>(8.0e7 / flop));

        const kernel::PackedMatrix packed_a =
            kernel::pack_a(a.data(), s.k, /*trans_a=*/false, s.m, s.k);
        const kernel::PackedMatrix packed_at =
            kernel::pack_b(a.data(), s.k, /*trans_b=*/true, s.k, s.m);
        // `packed` repacks the activation B each call into reused scratch,
        // as a weight-packed layer's forward does; `packed_t` repacks the
        // transposed activation A, as gemm_packed_b does.
        kernel::PackedMatrix scratch_b;
        kernel::PackedMatrix scratch_a;

        std::vector<Variant> variants = {
            {"naive", "none", [&] { ens::gemm_naive(a, false, b, false, c); }},
            {"blocked", kernel::kernel_isa(),
             [&] {
                 kernel::gemm_blocked(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n, false,
                                      c.data(), s.n, 1.0f, 0.0f, /*parallel=*/false);
             }},
            {"blocked_mt", kernel::kernel_isa(),
             [&] {
                 kernel::gemm_blocked(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n, false,
                                      c.data(), s.n, 1.0f, 0.0f, /*parallel=*/true);
             }},
        };
        for (const char* isa : kernel::detail::host_isas()) {
            variants.push_back({"packed", isa, [&, isa] {
                                    kernel::pack_b_into(scratch_b, b.data(), s.n, false, s.k, s.n);
                                    kernel::detail::gemm_packed_isa(isa, packed_a, scratch_b,
                                                                    c.data(), s.n, 1.0f, 0.0f,
                                                                    /*parallel=*/true);
                                }});
            variants.push_back({"packed_t", isa, [&, isa] {
                                    // c holds C^T [n, m] here; same size, ldc = m.
                                    kernel::pack_a_into(scratch_a, b.data(), s.n,
                                                        /*trans_a=*/true, s.n, s.k);
                                    kernel::detail::gemm_packed_isa(isa, scratch_a, packed_at,
                                                                    c.data(), s.m, 1.0f, 0.0f,
                                                                    /*parallel=*/true);
                                }});
        }

        double naive_ms = 0.0;
        for (const Variant& v : variants) {
            const double ms = time_ms(reps, v.run);
            if (std::string(v.name) == "naive") {
                naive_ms = ms;
            }
            const double gflops = flop / (ms * 1.0e6);
            const double speedup = naive_ms > 0.0 ? naive_ms / ms : 0.0;
            std::printf("| %s | %s | %s | %lld | %lld | %lld | %.3f | %.2f | %.2fx |\n",
                        s.label.c_str(), v.name, v.isa, static_cast<long long>(s.m),
                        static_cast<long long>(s.n), static_cast<long long>(s.k), ms, gflops,
                        speedup);
            json.row()
                .field("shape", s.label)
                .field("variant", std::string(v.name))
                .field("isa", std::string(v.isa))
                .field("m", static_cast<double>(s.m))
                .field("n", static_cast<double>(s.n))
                .field("k", static_cast<double>(s.k))
                .field("reps", static_cast<double>(reps))
                .field("ms", ms)
                .field("gflops", gflops)
                .field("speedup_naive", speedup);
        }
    }

    std::printf("\nConv lowering, one image, serial\n");
    std::printf("| shape | variant | C_out | positions | patch | us/image | vs im2col |\n");
    ens::bench::print_rule(7);
    for (const LoweringSpec& s : kLoweringShapes) {
        ens::ConvGeometry g;
        g.in_channels = s.c_in;
        g.in_h = g.in_w = s.hw;
        g.kernel_h = g.kernel_w = 3;
        g.stride = s.stride;
        g.padding = 1;
        const std::int64_t k = g.patch_size();
        const std::int64_t n = g.out_positions();
        const bool transposed = n < kernel::kNR;  // Conv2d's orientation rule
        const Tensor image = Tensor::randn(Shape{s.c_in, s.hw, s.hw}, rng, 0.0f, 1.0f);
        std::vector<float> col(static_cast<std::size_t>(k * n));
        kernel::PackedMatrix pack;
        constexpr int reps = 1000;

        const std::vector<Variant> variants = {
            {"lower_im2col", "none",
             [&] {
                 ens::im2col(image.data(), g, col.data());
                 if (transposed) {
                     kernel::pack_a_into(pack, col.data(), n, /*trans_a=*/true, n, k);
                 } else {
                     kernel::pack_b_into(pack, col.data(), n, /*trans_b=*/false, k, n);
                 }
             }},
            {"lower_direct", "none",
             [&] {
                 if (transposed) {
                     kernel::pack_conv_a_into(pack, image.data(), g);
                 } else {
                     kernel::pack_conv_b_into(pack, image.data(), g);
                 }
             }},
        };
        double im2col_ms = 0.0;
        for (const Variant& v : variants) {
            const double ms = time_ms(reps, v.run);
            if (std::string(v.name) == "lower_im2col") {
                im2col_ms = ms;
            }
            const double speedup = im2col_ms / ms;
            std::printf("| %s | %s | %lld | %lld | %lld | %.2f | %.2fx |\n", s.label.c_str(),
                        v.name, static_cast<long long>(s.c_out), static_cast<long long>(n),
                        static_cast<long long>(k), ms * 1.0e3, speedup);
            json.row()
                .field("shape", s.label)
                .field("variant", std::string(v.name))
                .field("isa", std::string(v.isa))
                .field("m", static_cast<double>(s.c_out))
                .field("n", static_cast<double>(n))
                .field("k", static_cast<double>(k))
                .field("reps", static_cast<double>(reps))
                .field("ms", ms)
                .field("us_per_image", ms * 1.0e3)
                .field("speedup_im2col", speedup);
        }
    }

    json.write("BENCH_kernels.json");
    return 0;
}
