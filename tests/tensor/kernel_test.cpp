// Parity and lifecycle suite for the blocked GEMM micro-kernel
// (src/tensor/gemm_kernel.hpp) and the packed-weight caches built on it.
//
// Two distinct equality notions, per the kernel's determinism contract:
//
//   - BOUNDED ERROR vs the naive reference (gemm_naive) and a
//     double-accumulating oracle: blocking + FMA reorder the summation, so
//     cross-kernel comparisons use EXPECT_NEAR with a 1e-3 tolerance
//     (inputs are O(1) randn, K <= a few hundred — the same bound
//     ops_test.cpp has always used for GEMM).
//   - BIT-EXACT across the kernel's own axes: packed vs unpacked operands,
//     parallel vs serial, train-mode vs eval-mode layer forwards, and
//     bundle loads. These use EXPECT_EQ on to_vector()/raw floats — any
//     reordering is a bug, because serving bit-parity rests on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "serve/bundle.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

#include "../serve/serve_harness.hpp"

namespace ens {
namespace {

namespace fs = std::filesystem;

/// Double-accumulating oracle, independent of both kernels.
Tensor reference_gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b, float alpha,
                      float beta, const Tensor& c_in) {
    const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
    const std::int64_t k = trans_a ? a.dim(0) : a.dim(1);
    const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
    Tensor out(Shape{m, n});
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = trans_a ? a.data()[p * a.dim(1) + i] : a.data()[i * a.dim(1) + p];
                const float bv = trans_b ? b.data()[j * b.dim(1) + p] : b.data()[p * b.dim(1) + j];
                acc += static_cast<double>(av) * bv;
            }
            out.data()[i * n + j] = static_cast<float>(
                alpha * acc + (beta == 0.0f ? 0.0 : beta * c_in.data()[i * n + j]));
        }
    }
    return out;
}

struct GemmCase {
    std::int64_t m, n, k;
    bool trans_a, trans_b;
};

class KernelSweep : public ::testing::TestWithParam<GemmCase> {};

// Shapes chosen to stress every ragged edge: below one tile, exact tile
// multiples, one-past-a-tile, K crossing the kKC slab boundary, and the
// degenerate M=1 / N=1 / K=1 rows.
INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelSweep,
    ::testing::Values(GemmCase{1, 1, 1, false, false}, GemmCase{1, 7, 3, false, false},
                      GemmCase{5, 3, 2, false, true}, GemmCase{3, 129, 7, true, false},
                      GemmCase{6, 16, 256, false, false},   // exact MR/NR/KC tiles
                      GemmCase{7, 17, 257, false, false},   // one past every tile
                      GemmCase{12, 32, 512, true, true},    // tile multiples, both trans
                      GemmCase{13, 31, 57, false, false}, GemmCase{65, 33, 300, false, true},
                      GemmCase{97, 5, 301, true, false},    // K crosses the kKC slab
                      GemmCase{1, 64, 19, false, false},    // M=1
                      GemmCase{64, 1, 19, true, true},      // N=1
                      GemmCase{23, 29, 1, false, false}));  // K=1

TEST_P(KernelSweep, MatchesReferenceAllTransCombos) {
    const GemmCase p = GetParam();
    Rng rng(0x5EED + static_cast<std::uint64_t>(p.m * 1000 + p.n * 10 + p.k));
    const Tensor a = Tensor::randn(p.trans_a ? Shape{p.k, p.m} : Shape{p.m, p.k}, rng);
    const Tensor b = Tensor::randn(p.trans_b ? Shape{p.n, p.k} : Shape{p.k, p.n}, rng);
    const float alpha = 1.25f;

    // beta == 0 must fully overwrite C: poison it with NaN so a
    // read-modify-write (0 * NaN = NaN) cannot hide.
    Tensor c(Shape{p.m, p.n});
    c.fill(std::nanf(""));
    kernel::gemm_blocked(p.m, p.n, p.k, a.data(), a.dim(1), p.trans_a, b.data(), b.dim(1),
                         p.trans_b, c.data(), p.n, alpha, 0.0f, /*parallel=*/false);
    const Tensor expected0 = reference_gemm(a, p.trans_a, b, p.trans_b, alpha, 0.0f, c);
    for (std::int64_t i = 0; i < c.numel(); ++i) {
        ASSERT_NEAR(c.data()[i], expected0.data()[i], 1e-3f) << "beta=0 element " << i;
    }

    // beta != 0 accumulates into existing C.
    Tensor c1 = Tensor::randn(Shape{p.m, p.n}, rng);
    const Tensor c1_before = c1.clone();
    kernel::gemm_blocked(p.m, p.n, p.k, a.data(), a.dim(1), p.trans_a, b.data(), b.dim(1),
                         p.trans_b, c1.data(), p.n, alpha, 0.5f, /*parallel=*/true);
    const Tensor expected1 = reference_gemm(a, p.trans_a, b, p.trans_b, alpha, 0.5f, c1_before);
    for (std::int64_t i = 0; i < c1.numel(); ++i) {
        ASSERT_NEAR(c1.data()[i], expected1.data()[i], 1e-3f) << "beta=0.5 element " << i;
    }
}

TEST_P(KernelSweep, AgreesWithNaiveKernel) {
    const GemmCase p = GetParam();
    Rng rng(0xA11CE);
    const Tensor a = Tensor::randn(p.trans_a ? Shape{p.k, p.m} : Shape{p.m, p.k}, rng);
    const Tensor b = Tensor::randn(p.trans_b ? Shape{p.n, p.k} : Shape{p.k, p.n}, rng);
    Tensor c_blocked(Shape{p.m, p.n});
    Tensor c_naive(Shape{p.m, p.n});
    gemm(a, p.trans_a, b, p.trans_b, c_blocked);
    gemm_naive(a, p.trans_a, b, p.trans_b, c_naive);
    for (std::int64_t i = 0; i < c_blocked.numel(); ++i) {
        ASSERT_NEAR(c_blocked.data()[i], c_naive.data()[i], 1e-3f) << "element " << i;
    }
}

TEST(Kernel, PackedUnpackedAndParallelAreBitIdentical) {
    // One C, six ways: unpacked serial, unpacked parallel, pre-packed A,
    // pre-packed B, both pre-packed, and C^T = op(B)^T · op(A)^T with the
    // roles swapped (B's source as a transposed A, A's source pre-packed
    // as a transposed B) — the symmetry Conv2d's small-spatial path rests
    // on. All six must agree to the bit, also at a ragged n that becomes
    // the transposed product's m, and at a k spanning several kKC slabs.
    struct Dims {
        std::int64_t m, n, k;
    };
    for (const Dims d : {Dims{97, 65, 300}, Dims{128, 4, 1152}, Dims{70, 7, 1152}}) {
        const std::int64_t m = d.m, n = d.n, k = d.k;
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " k=" + std::to_string(k));
        Rng rng(0xB17);
        const Tensor a = Tensor::randn(Shape{m, k}, rng);
        const Tensor bt = Tensor::randn(Shape{n, k}, rng);  // used as op(B) via trans_b

        const auto run = [&](auto&& fn) {
            Tensor c(Shape{m, n});
            c.fill(std::nanf(""));
            fn(c);
            return c.to_vector();
        };
        const std::vector<float> serial = run([&](Tensor& c) {
            kernel::gemm_blocked(m, n, k, a.data(), k, false, bt.data(), k, true, c.data(), n,
                                 1.0f, 0.0f, false);
        });
        const std::vector<float> parallel = run([&](Tensor& c) {
            kernel::gemm_blocked(m, n, k, a.data(), k, false, bt.data(), k, true, c.data(), n,
                                 1.0f, 0.0f, true);
        });
        const kernel::PackedMatrix pa = kernel::pack_a(a.data(), k, false, m, k);
        const kernel::PackedMatrix pb = kernel::pack_b(bt.data(), k, true, k, n);
        const std::vector<float> packed_a = run([&](Tensor& c) {
            kernel::PackedMatrix scratch;
            kernel::pack_b_into(scratch, bt.data(), k, true, k, n);
            kernel::gemm_packed(pa, scratch, c.data(), n, 1.0f, 0.0f, true);
        });
        const std::vector<float> packed_b = run([&](Tensor& c) {
            kernel::gemm_packed_b(a.data(), k, false, m, pb, c.data(), n, 1.0f, 0.0f, false);
        });
        const std::vector<float> packed_both = run(
            [&](Tensor& c) { kernel::gemm_packed(pa, pb, c.data(), n, 1.0f, 0.0f, true); });

        // C^T[n, m] = col^T · a^T, laid out exactly as Conv2d's col^T · W^T:
        // col = op(B) stored [k, n] like an im2col matrix and read as a
        // transposed A; a ([m, k], the weight) pre-packed as a transposed B.
        Tensor col(Shape{k, n});
        for (std::int64_t p = 0; p < k; ++p) {
            for (std::int64_t j = 0; j < n; ++j) {
                col.data()[p * n + j] = bt.data()[j * k + p];
            }
        }
        const kernel::PackedMatrix a_as_b = kernel::pack_b(a.data(), k, true, k, m);
        Tensor ct(Shape{n, m});
        ct.fill(std::nanf(""));
        kernel::gemm_packed_b(col.data(), n, /*trans_a=*/true, n, a_as_b, ct.data(), m, 1.0f,
                              0.0f, false);
        std::vector<float> transposed(static_cast<std::size_t>(m * n));
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
                transposed[static_cast<std::size_t>(i * n + j)] = ct.data()[j * m + i];
            }
        }

        EXPECT_EQ(serial, parallel);
        EXPECT_EQ(serial, packed_a);
        EXPECT_EQ(serial, packed_b);
        EXPECT_EQ(serial, packed_both);
        EXPECT_EQ(serial, transposed);
    }
}

TEST(Kernel, MicroKernelMatchesScalarFmaChain) {
    // The suites above compare kernel paths with each other, so a micro-
    // kernel that reordered its FMA chain would still pass them. This pins
    // the rounding to a scalar model: within each kKC slab, C[i][j] is one
    // std::fmaf chain over p in order, starting from 0; slabs then merge
    // into C in order, as write_tile does (the first applies beta, later
    // ones add). alpha = 1 and a power-of-two beta keep the merge exact
    // whether or not the compiler contracts it into an FMA. Every vector
    // micro-kernel this host can run is held to it, not just the
    // dispatched one, so an AVX-512 host keeps the AVX2 path covered. The
    // portable path leaves FMA contraction to the compiler, so it is not.
    std::vector<std::string> isas;
    for (const char* isa : kernel::detail::host_isas()) {
        if (std::string(isa) != "portable") {
            isas.emplace_back(isa);
        }
    }
    if (isas.empty()) {
        GTEST_SKIP() << "portable micro-kernel has no fixed FMA chain";
    }
    struct Dims {
        std::int64_t m, n, k;
    };
    const float alpha = 1.0f;
    // k = 100, 260, 300 and 1152 span 1, 2, 2 and 5 kKC slabs; m and n are
    // ragged against the kMR x kNR tile. In kMR strips, m = 7 and 12 are one
    // strip pair, 13 and 16 a pair plus a lone strip, 20 two pairs, and 78
    // a full kMC block of six pairs plus a lone strip in the next block
    // (large enough to run parallel, so the pool's chunking is covered).
    const std::vector<Dims> dims = {{13, 37, 100}, {7, 5, 300},  {20, 19, 1152},
                                    {12, 16, 260}, {16, 33, 300}, {78, 40, 300}};
    for (const std::string& isa : isas) {
        for (const Dims d : dims) {
            for (const float beta : {0.0f, 0.5f}) {
                const std::int64_t m = d.m, n = d.n, k = d.k;
                SCOPED_TRACE("isa=" + isa + " m=" + std::to_string(m) + " n=" +
                             std::to_string(n) + " k=" + std::to_string(k) +
                             " beta=" + std::to_string(beta));
                Rng rng(0xF3A + static_cast<std::uint64_t>(k));
                const Tensor a = Tensor::randn(Shape{m, k}, rng);
                const Tensor b = Tensor::randn(Shape{k, n}, rng);
                const Tensor c_in = Tensor::randn(Shape{m, n}, rng);

                std::vector<float> expected(static_cast<std::size_t>(m * n));
                for (std::int64_t i = 0; i < m; ++i) {
                    for (std::int64_t j = 0; j < n; ++j) {
                        float c = c_in.data()[i * n + j];
                        for (std::int64_t k0 = 0; k0 < k; k0 += kernel::kKC) {
                            float acc = 0.0f;
                            for (std::int64_t p = k0; p < std::min(k, k0 + kernel::kKC); ++p) {
                                acc = std::fmaf(a.data()[i * k + p], b.data()[p * n + j], acc);
                            }
                            if (k0 > 0) {
                                c += alpha * acc;
                            } else if (beta == 0.0f) {
                                c = alpha * acc;
                            } else {
                                c = beta * c + alpha * acc;
                            }
                        }
                        expected[static_cast<std::size_t>(i * n + j)] = c;
                    }
                }

                const kernel::PackedMatrix pa = kernel::pack_a(a.data(), k, false, m, k);
                const kernel::PackedMatrix pb = kernel::pack_b(b.data(), n, false, k, n);
                for (const bool parallel : {false, true}) {
                    Tensor c = c_in.clone();
                    if (beta == 0.0f) {
                        c.fill(std::nanf(""));
                    }
                    kernel::detail::gemm_packed_isa(isa.c_str(), pa, pb, c.data(), n, alpha,
                                                    beta, parallel);
                    EXPECT_EQ(c.to_vector(), expected) << "parallel=" << parallel;
                }
            }
        }
    }
}

TEST(Kernel, TensorGemmAndGemmSerialAreBitIdentical) {
    Rng rng(0x90D);
    const Tensor a = Tensor::randn(Shape{70, 130}, rng);
    const Tensor b = Tensor::randn(Shape{130, 40}, rng);
    Tensor c_par(Shape{70, 40});
    Tensor c_ser(Shape{70, 40});
    gemm(a, false, b, false, c_par, 0.7f);
    gemm_serial(a, false, b, false, c_ser, 0.7f);
    EXPECT_EQ(c_par.to_vector(), c_ser.to_vector());
}

TEST(Kernel, IsaIsDispatched) {
    const std::string isa = kernel::kernel_isa();
    EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "neon" || isa == "portable") << isa;
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx512f")) {
        EXPECT_EQ(isa, "avx512");
    } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        EXPECT_EQ(isa, "avx2");
    }
#endif
    const std::vector<const char*> host = kernel::detail::host_isas();
    ASSERT_FALSE(host.empty());
    EXPECT_EQ(std::string(host.front()), isa);
    EXPECT_EQ(std::string(host.back()), "portable");
}

TEST(Kernel, RejectsWrongSidePacksAndGeometryMismatch) {
    Rng rng(7);
    const Tensor a = Tensor::randn(Shape{8, 12}, rng);
    const Tensor b = Tensor::randn(Shape{12, 10}, rng);
    const kernel::PackedMatrix pa = kernel::pack_a(a.data(), 12, false, 8, 12);
    const kernel::PackedMatrix pb = kernel::pack_b(b.data(), 10, false, 12, 10);
    Tensor c(Shape{8, 10});
    EXPECT_THROW(kernel::gemm_packed(pb, pb, c.data(), 10, 1.0f, 0.0f, false),
                 std::invalid_argument);
    EXPECT_THROW(kernel::gemm_packed(pa, pa, c.data(), 10, 1.0f, 0.0f, false),
                 std::invalid_argument);
    // Inner-dimension mismatch: A pack is [8, 12], a [13, 10] B pack.
    const Tensor b_bad = Tensor::randn(Shape{13, 10}, rng);
    const kernel::PackedMatrix pb_bad = kernel::pack_b(b_bad.data(), 10, false, 13, 10);
    EXPECT_THROW(kernel::gemm_packed(pa, pb_bad, c.data(), 10, 1.0f, 0.0f, false),
                 std::invalid_argument);
    // The per-ISA seam runs only micro-kernels this host has.
    EXPECT_THROW(kernel::detail::gemm_packed_isa("no-such-isa", pa, pb, c.data(), 10, 1.0f, 0.0f,
                                                 false),
                 std::invalid_argument);
}

// ---------------------------------------------------------------- layers

TEST(PackedWeights, LinearEvalForwardIsBitIdenticalToTrainAndPacksLazily) {
    Rng rng(0x11EA);
    nn::Linear layer(23, 17, rng);
    const Tensor x = Tensor::randn(Shape{5, 23}, rng);

    ASSERT_TRUE(layer.training());
    const Tensor out_train = layer.forward(x);
    EXPECT_FALSE(layer.weights_packed()) << "training forward must not pack";

    layer.set_training(false);
    EXPECT_FALSE(layer.weights_packed()) << "pack is lazy, not built on mode switch";
    const Tensor out_eval = layer.forward(x);
    EXPECT_TRUE(layer.weights_packed());
    EXPECT_EQ(out_train.to_vector(), out_eval.to_vector())
        << "packed eval path diverged from the unpacked train path";
}

// Conv geometries for the direct packers and the Conv2d parity suite.
// They cover kernels 1/3/7, strides 1/2 and padding 0/1/3; square maps
// from 2x2 to 32x32 and odd non-square ones (5x7, 1x17); patches longer
// than kKC (576, 1152); ragged last strips (positions not a multiple of
// kNR or kMR); and both sides of Conv2d's kNR cutoff (15 / 16 / 17
// positions). The first rows are the ResNet-18 w16 body convs.
struct ConvCase {
    const char* label;
    std::int64_t in_ch, out_ch, kernel, stride, padding, h, w;
    std::int64_t batch;
    bool bias;
};

const ConvCase kConvCases[] = {
    {"stage1_3x3_16x16", 16, 16, 3, 1, 1, 16, 16, 1, false},
    {"stage2_down_3x3_s2_16x16", 16, 32, 3, 2, 1, 16, 16, 1, false},
    {"stage2_3x3_8x8", 32, 32, 3, 1, 1, 8, 8, 2, true},
    {"stage3_3x3_4x4_patch576", 64, 64, 3, 1, 1, 4, 4, 1, false},
    {"stage4_down_3x3_s2_4x4_patch576", 64, 40, 3, 2, 1, 4, 4, 1, true},
    {"stage4_3x3_2x2_patch1152", 128, 20, 3, 1, 1, 2, 2, 2, true},
    {"proj_1x1_s2_8x8", 24, 40, 1, 2, 0, 8, 8, 1, false},
    {"stage4_proj_1x1_s2_4x4", 24, 40, 1, 2, 0, 4, 4, 1, false},
    {"1x1_s1_6x6", 5, 7, 1, 1, 0, 6, 6, 1, true},
    {"7x7_s2_p3_32x32", 3, 8, 7, 2, 3, 32, 32, 1, true},
    {"7x7_s1_p3_5x7", 4, 6, 7, 1, 3, 5, 7, 2, false},
    {"3x3_s1_p1_5x7", 3, 5, 3, 1, 1, 5, 7, 1, true},
    {"3x3_s2_p0_5x7", 6, 9, 3, 2, 0, 5, 7, 1, false},
    {"3x3_s1_p0_32x32_ragged", 2, 13, 3, 1, 0, 32, 32, 1, false},
    {"3x3_s1_p1_32x32", 3, 16, 3, 1, 1, 32, 32, 1, true},
    {"3x3_s1_p1_2x2_one_channel", 1, 4, 3, 1, 1, 2, 2, 1, false},
    {"7x7_s1_p3_4x4_kNR_positions", 2, 11, 7, 1, 3, 4, 4, 1, true},
    {"3x3_s1_p1_3x5_15_positions", 8, 12, 3, 1, 1, 3, 5, 1, false},
    {"3x3_s1_p1_1x17_17_positions", 8, 12, 3, 1, 1, 1, 17, 1, true},
};

ConvGeometry conv_geometry(const ConvCase& c) {
    ConvGeometry g;
    g.in_channels = c.in_ch;
    g.in_h = c.h;
    g.in_w = c.w;
    g.kernel_h = c.kernel;
    g.kernel_w = c.kernel;
    g.stride = c.stride;
    g.padding = c.padding;
    return g;
}

std::string conv_case_name(const ::testing::TestParamInfo<ConvCase>& info) {
    return info.param.label;
}

void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.label; }

class ConvPackers : public ::testing::TestWithParam<ConvCase> {};
INSTANTIATE_TEST_SUITE_P(Geometries, ConvPackers, ::testing::ValuesIn(kConvCases),
                         conv_case_name);

TEST_P(ConvPackers, DirectPacksMatchIm2colThenPack) {
    // Each direct packer against im2col + the generic packer, through a
    // GEMM with the same weight pack: the outputs must be the same bytes.
    const ConvCase cc = GetParam();
    const ConvGeometry g = conv_geometry(cc);
    const std::int64_t patch = g.patch_size();
    const std::int64_t positions = g.out_positions();
    Rng rng(0xC0117 + static_cast<std::uint64_t>(patch * 131 + positions));
    const Tensor image = Tensor::randn(Shape{cc.in_ch, cc.h, cc.w}, rng);
    const Tensor w = Tensor::randn(Shape{cc.out_ch, patch}, rng);
    Tensor col(Shape{patch, positions});
    im2col(image.data(), g, col.data());

    const auto same_bytes = [](const std::vector<float>& x, const std::vector<float>& y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
    };
    const auto product = [](const kernel::PackedMatrix& a, const kernel::PackedMatrix& b) {
        std::vector<float> c(static_cast<std::size_t>(a.rows() * b.cols()), std::nanf(""));
        kernel::gemm_packed(a, b, c.data(), b.cols(), 1.0f, 0.0f, /*parallel=*/false);
        return c;
    };

    // B panels for W · col.
    const kernel::PackedMatrix w_as_a = kernel::pack_a(w.data(), patch, false, cc.out_ch, patch);
    const kernel::PackedMatrix col_b =
        kernel::pack_b(col.data(), positions, /*trans_b=*/false, patch, positions);
    kernel::PackedMatrix direct_b;
    kernel::pack_conv_b_into(direct_b, image.data(), g);
    ASSERT_EQ(direct_b.rows(), patch);
    ASSERT_EQ(direct_b.cols(), positions);
    EXPECT_TRUE(same_bytes(product(w_as_a, col_b), product(w_as_a, direct_b)))
        << "pack_conv_b_into diverged from im2col + pack_b_into";

    // A strips of col^T for col^T · W^T.
    const kernel::PackedMatrix w_as_b = kernel::pack_b(w.data(), patch, true, patch, cc.out_ch);
    const kernel::PackedMatrix col_a =
        kernel::pack_a(col.data(), positions, /*trans_a=*/true, positions, patch);
    kernel::PackedMatrix direct_a;
    kernel::pack_conv_a_into(direct_a, image.data(), g);
    ASSERT_EQ(direct_a.rows(), positions);
    ASSERT_EQ(direct_a.cols(), patch);
    EXPECT_TRUE(same_bytes(product(col_a, w_as_b), product(direct_a, w_as_b)))
        << "pack_conv_a_into diverged from im2col + pack_a_into";
}

class PackedWeightsConv : public ::testing::TestWithParam<ConvCase> {};
INSTANTIATE_TEST_SUITE_P(Geometries, PackedWeightsConv, ::testing::ValuesIn(kConvCases),
                         conv_case_name);

TEST_P(PackedWeightsConv, Conv2dEvalForwardIsBitIdenticalToTrain) {
    // Train and eval share one lowering; eval reuses a cached weight pack,
    // train packs per forward, and either picks W · col from kNR output
    // positions up and col^T · W^T below. Both must match, to the bit, an
    // explicit im2col + gemm_blocked(W, col) per image plus bias.
    const ConvCase cc = GetParam();
    const ConvGeometry g = conv_geometry(cc);
    const std::int64_t patch = g.patch_size();
    const std::int64_t positions = g.out_positions();
    Rng rng(0xC0DE + static_cast<std::uint64_t>(patch));
    nn::Conv2d layer(cc.in_ch, cc.out_ch, cc.kernel, cc.stride, cc.padding, rng, cc.bias);
    if (cc.bias) {
        layer.bias().value.copy_from(Tensor::randn(Shape{cc.out_ch}, rng));
    }
    const Tensor x = Tensor::randn(Shape{cc.batch, cc.in_ch, cc.h, cc.w}, rng);

    std::vector<float> expected(static_cast<std::size_t>(cc.batch * cc.out_ch * positions));
    Tensor col(Shape{patch, positions});
    for (std::int64_t n = 0; n < cc.batch; ++n) {
        im2col(x.data() + n * cc.in_ch * cc.h * cc.w, g, col.data());
        float* out = expected.data() + n * cc.out_ch * positions;
        kernel::gemm_blocked(cc.out_ch, positions, patch, layer.weight().value.data(), patch,
                             false, col.data(), positions, false, out, positions, 1.0f, 0.0f,
                             /*parallel=*/false);
        if (cc.bias) {
            for (std::int64_t c = 0; c < cc.out_ch; ++c) {
                for (std::int64_t p = 0; p < positions; ++p) {
                    out[c * positions + p] += layer.bias().value.data()[c];
                }
            }
        }
    }

    const Tensor out_train = layer.forward(x);
    EXPECT_FALSE(layer.weights_packed());
    EXPECT_EQ(out_train.to_vector(), expected) << "train forward";
    layer.set_training(false);
    const Tensor out_eval = layer.forward(x);
    EXPECT_TRUE(layer.weights_packed());
    EXPECT_EQ(out_eval.to_vector(), expected) << "eval forward";
}

TEST(PackedWeights, Conv2dPackFollowsGeometryFlips) {
    // One layer whose geometry flips back and forth: the single pack
    // follows it (A pack at 8x8, B pack at 2x2) and every output matches.
    Rng rng(0xC0DE);
    nn::Conv2d layer(32, 24, 3, 1, 1, rng, /*with_bias=*/true);
    layer.bias().value.copy_from(Tensor::randn(Shape{24}, rng));
    const Tensor big = Tensor::randn(Shape{1, 32, 8, 8}, rng);
    const Tensor small = Tensor::randn(Shape{1, 32, 2, 2}, rng);
    const std::vector<float> big_train = layer.forward(big).to_vector();
    const std::vector<float> small_train = layer.forward(small).to_vector();
    layer.set_training(false);
    EXPECT_EQ(big_train, layer.forward(big).to_vector()) << "8x8";
    EXPECT_EQ(small_train, layer.forward(small).to_vector()) << "then 2x2";
    EXPECT_EQ(big_train, layer.forward(big).to_vector()) << "then 8x8 again";
}

TEST(PackedWeights, SetTrainingDropsThePackAndRepackReflectsNewWeights) {
    Rng rng(0x7EA1);
    nn::Linear layer(9, 4, rng);
    const Tensor x = Tensor::randn(Shape{3, 9}, rng);
    layer.set_training(false);
    (void)layer.forward(x);
    ASSERT_TRUE(layer.weights_packed());

    // Back to training: the pack dies with the mode.
    layer.set_training(true);
    EXPECT_FALSE(layer.weights_packed());

    // Mutate the weight in training mode (an optimizer step), return to
    // eval: the fresh pack must see the new values.
    layer.weight().value.scale_(2.0f);
    layer.set_training(false);
    const Tensor out = layer.forward(x);
    Tensor expected(Shape{3, 4});
    gemm(x, false, layer.weight().value, true, expected);
    const float* b = layer.bias().value.data();
    for (std::int64_t i = 0; i < 3; ++i) {
        for (std::int64_t j = 0; j < 4; ++j) {
            expected.data()[i * 4 + j] += b[j];
        }
    }
    EXPECT_EQ(out.to_vector(), expected.to_vector());
}

TEST(PackedWeights, LoadStateInvalidatesThePack) {
    Rng rng_a(1), rng_b(2);
    nn::Linear live(11, 6, rng_a);
    nn::Linear donor(11, 6, rng_b);
    donor.set_training(false);
    live.set_training(false);
    const Tensor x = Tensor::randn(Shape{4, 11}, rng_a);
    (void)live.forward(x);
    ASSERT_TRUE(live.weights_packed());

    std::stringstream buffer;
    nn::save_state(donor, buffer);
    nn::load_state(live, buffer, "kernel_test");
    EXPECT_FALSE(live.weights_packed()) << "checkpoint restore left a stale pack";
    EXPECT_EQ(live.forward(x).to_vector(), donor.forward(x).to_vector())
        << "post-restore forward does not match the donor weights";
}

TEST(PackedWeights, CopyParametersInvalidatesThePack) {
    Rng rng_a(3), rng_b(4);
    nn::Conv2d live(2, 3, 3, 1, 1, rng_a);
    nn::Conv2d donor(2, 3, 3, 1, 1, rng_b);
    live.set_training(false);
    donor.set_training(false);
    const Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng_a);
    (void)live.forward(x);
    ASSERT_TRUE(live.weights_packed());

    nn::copy_parameters(donor, live);
    EXPECT_FALSE(live.weights_packed()) << "copy_parameters left a stale pack";
    EXPECT_EQ(live.forward(x).to_vector(), donor.forward(x).to_vector());
}

TEST(PackedWeights, PrepareInferencePacksEagerlyThroughContainers) {
    Rng rng(0x5E9);
    nn::Sequential net;
    auto& lin1 = net.emplace<nn::Linear>(8, 8, rng);
    auto& lin2 = net.emplace<nn::Linear>(8, 2, rng);
    EXPECT_FALSE(lin1.weights_packed());
    net.prepare_inference();
    EXPECT_FALSE(net.training());
    EXPECT_TRUE(lin1.weights_packed()) << "prepare_inference must pack before any forward";
    EXPECT_TRUE(lin2.weights_packed());
}

// ------------------------------------------------------- bundle hot-swap

/// Packed-weight lifecycle across a bundle hot-swap, at the exact layer
/// the reactor's DeploymentManager uses (load_bundle_bodies backs both
/// BodyHost::from_bundle boot and swap_from_bundle): generation 2 loading
/// beside generation 1 must neither inherit nor disturb generation 1's
/// packs, and an in-place reload of a body from the new bundle must drop
/// the old pack rather than serve stale weights.
TEST(PackedWeights, BundleHotSwapGetsFreshPacksAndLeavesPinnedGenerationIntact) {
    constexpr std::size_t kBodies = 2;
    serve::harness::EnsembleParts v1 =
        serve::harness::make_linear_ensemble(0xA1, kBodies, /*num_selected=*/1);
    serve::harness::EnsembleParts v2 =
        serve::harness::make_linear_ensemble(0xB2, kBodies, /*num_selected=*/1);
    serve::harness::set_eval(v1);
    serve::harness::set_eval(v2);
    const core::Selector selector(kBodies, {0});

    const auto save_generation = [&](const std::string& name,
                                     serve::harness::EnsembleParts& bodies) {
        const fs::path dir = fs::path("bundle_artifacts") / name;
        fs::remove_all(dir);
        fs::create_directories(dir);
        serve::BundleArtifacts artifacts;
        for (nn::LayerPtr& body : bodies.bodies) {
            artifacts.bodies.push_back(body.get());
        }
        artifacts.head = v1.head.get();
        artifacts.tail = v1.tail.get();
        artifacts.selector = &selector;
        serve::save_bundle(dir.string(), artifacts);
        return dir.string();
    };
    const std::string dir_v1 = save_generation("kernel_swap_v1", v1);
    const std::string dir_v2 = save_generation("kernel_swap_v2", v2);

    const auto inner_linear = [](nn::Layer& body) -> nn::Linear& {
        auto& seq = dynamic_cast<nn::Sequential&>(body);
        return dynamic_cast<nn::Linear&>(seq.layer(0));
    };

    // Generation 1 boots: bodies come back eval-mode with weights ALREADY
    // packed (prepare_inference at load — no first-request packing cost).
    std::vector<nn::LayerPtr> gen1 =
        serve::load_bundle_bodies(dir_v1, serve::load_bundle_manifest(dir_v1));
    ASSERT_EQ(gen1.size(), kBodies);
    for (const nn::LayerPtr& body : gen1) {
        EXPECT_FALSE(body->training());
        EXPECT_TRUE(inner_linear(*body).weights_packed())
            << "bundle load must pack weights eagerly";
    }

    Rng rng(0xDA7A);
    const Tensor x = Tensor::randn(Shape{4, serve::harness::kHidden}, rng);
    const Tensor out1_before = gen1[0]->forward(x);
    // Oracle: the very ensemble the bundle snapshotted.
    EXPECT_EQ(out1_before.to_vector(), v1.bodies[0]->forward(x).to_vector());

    // The hot-swap: generation 2 loads BESIDE generation 1.
    std::vector<nn::LayerPtr> gen2 =
        serve::load_bundle_bodies(dir_v2, serve::load_bundle_manifest(dir_v2));
    const Tensor out2 = gen2[0]->forward(x);
    EXPECT_EQ(out2.to_vector(), v2.bodies[0]->forward(x).to_vector())
        << "generation 2 serves wrong weights";
    EXPECT_NE(out2.to_vector(), out1_before.to_vector())
        << "generations indistinguishable — test cannot detect pack aliasing";

    // The pinned generation is untouched by the swap: bit-exact replay.
    const Tensor out1_after = gen1[0]->forward(x);
    EXPECT_EQ(out1_before.to_vector(), out1_after.to_vector())
        << "loading generation 2 disturbed generation 1's packed weights";

    // In-place reload (roll a body to the new checkpoint): the pack from
    // the old weights must die with them.
    nn::load_state_file(*gen1[0], (fs::path(dir_v2) / "body_000.ckpt").string());
    EXPECT_FALSE(inner_linear(*gen1[0]).weights_packed())
        << "reload kept the generation 1 pack";
    EXPECT_EQ(gen1[0]->forward(x).to_vector(), out2.to_vector())
        << "reloaded body still serves generation 1 outputs — stale pack";
}

}  // namespace
}  // namespace ens
