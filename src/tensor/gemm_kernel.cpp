#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "tensor/im2col.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ENS_KERNEL_X86 1
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define ENS_KERNEL_NEON 1
#endif

namespace ens::kernel {

namespace {

constexpr std::size_t kPanelAlignment = 64;

/// Below this flop count the fork/join of parallel_for costs more than the
/// multiply (matches the historical ops.cpp threshold).
constexpr std::int64_t kParallelMinFlops = 1 << 20;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// ------------------------------------------------------------ operand sources
//
// A micro-kernel reads each operand through a source: a packed panel, or,
// for the implicit conv lowerings, the zero-padded image itself, addressed
// through the per-patch-row and per-position offsets of ConvSource below.
// A sources give one scalar per (k step p, tile row r), which the kernel
// broadcasts; B sources give the step's kNR lanes. All four are read at the
// same p, so a C element is the same FMA chain over the same values in the
// same order whichever source fed it, and every lowering is bit-identical
// to packing first.

/// A strip of a packed A panel: kc steps of kMR floats.
struct PanelA {
    const float* ap;
    float at(std::int64_t p, int r) const { return ap[p * kMR + r]; }
};

/// A strip of col^T read from the image (the transposed conv, col^T · W^T):
/// row r is output position off[r], step p patch row rows[p]. Rows past the
/// last position re-read the strip's first one; the kernel never runs them
/// for a lone strip, and write_tile drops them in a pair.
struct ImageA {
    const float* data;
    const std::int64_t* rows;
    std::int64_t off[kMR];
    float at(std::int64_t p, int r) const { return data[rows[p] + off[r]]; }
};

/// A strip of a packed B panel: kc 64-byte-aligned steps of kNR floats.
struct PanelB {
    const float* bp;
};

/// A full kNR strip of col read from the image (W · col at stride 1): step
/// p's lanes are the kRuns runs of kNR / kRuns adjacent floats at
/// data + rows[p] + off0 and (two runs) + off1. One run has off1 = off0 +
/// kNR / 2, so an 8-lane ISA reads both kinds as two halves. Each load
/// covers exactly one run that pack_conv_b_into would copy and no float past
/// it, so the per-thread padded copy needs no slack after its last row, and
/// at padding 0, where the loads read the caller's image itself, no load
/// passes its last float.
template <int kRuns>
struct ImageB {
    const float* data;
    const std::int64_t* rows;
    std::int64_t off0, off1;
};

/// Tile row r's A value at step p, of the strip at a0 (r < kMR) or the
/// paired strip at a1.
template <int kRow, class A>
inline float a_value(const A& a0, const A& a1, std::int64_t p) {
    if constexpr (kRow < kMR) {
        return a0.at(p, kRow);
    } else {
        return a1.at(p, kRow - kMR);
    }
}

// ------------------------------------------------------------ micro-kernels
//
// Each ISA is a struct whose tile<R>(kc, a0, a1, b, acc) computes R rows of
// op(A)-strips @ op(B)-strip over one kc-deep slab: rows 0..kMR-1 from the
// A strip a0 and, when R > kMR, the rest from the next strip a1 (kRows is
// the most one call covers). acc is kNR-strided, 64-byte aligned and
// overwritten (not accumulated; run_gemm merges slabs into C so the slab
// order, and therefore the rounding, is fixed). Only the first R rows of acc
// are written; run_gemm runs a lone last strip at its live row count, so a
// 4-row strip costs 4 FMAs per k step, not kMR, and where the ISA sets
// kWideLone it runs that strip against two B strips at once (tile_wide).
// Pairing, widening and row counts change only which C elements one call
// covers: each C element is still one FMA chain over p in order.

struct Portable {
    static constexpr int kRows = kMR;
    static constexpr bool kWideLone = false;

    template <int R, class A, class B>
    static void tile(std::int64_t kc, A a0, A /*a1*/, B b, float* ENS_RESTRICT acc) {
        float rows[R * kNR] = {};
        for (std::int64_t p = 0; p < kc; ++p) {
            const float* ENS_RESTRICT bv = b.bp + p * kNR;
            for (int i = 0; i < R; ++i) {
                const float av = a0.at(p, i);
                float* ENS_RESTRICT row = rows + i * kNR;
                for (int j = 0; j < kNR; ++j) {
                    row[j] += av * bv[j];
                }
            }
        }
        std::memcpy(acc, rows, sizeof(rows));
    }
};

#if defined(ENS_KERNEL_X86)
// The x86 kernels keep their accumulators in named variables, updated
// through force-inlined per-row helpers, not in __m256/__m512 arrays. With
// the arrays, GCC 12 -O3 kept the AVX2 tile in ymm2-ymm13 but also stored
// all twelve back to the arrays' stack slots on every k step (12 vmovaps
// stores beside 12 FMAs), which capped 256^3 `packed` in BENCH_kernels at
// ~29-40 GFLOP/s on one AVX2 core. Check before folding them into an array
// or loop: in
//   objdump -d --no-show-raw-insn -C build/CMakeFiles/ens.dir/src/tensor/gemm_kernel.cpp.o
// the k loops of every Avx2::tile and Avx512::tile instance must hold only
// loads, broadcasts and FMAs (and the merge of two-run B loads), and no
// store to (%rsp).

__attribute__((target("avx2,fma"), always_inline)) inline __m256 ymm_lo(const PanelB& b,
                                                                         std::int64_t p) {
    return _mm256_load_ps(b.bp + p * kNR);
}
__attribute__((target("avx2,fma"), always_inline)) inline __m256 ymm_hi(const PanelB& b,
                                                                         std::int64_t p) {
    return _mm256_load_ps(b.bp + p * kNR + kNR / 2);
}
template <int kRuns>
__attribute__((target("avx2,fma"), always_inline)) inline __m256 ymm_lo(const ImageB<kRuns>& b,
                                                                         std::int64_t p) {
    return _mm256_loadu_ps(b.data + b.rows[p] + b.off0);
}
template <int kRuns>
__attribute__((target("avx2,fma"), always_inline)) inline __m256 ymm_hi(const ImageB<kRuns>& b,
                                                                         std::int64_t p) {
    return _mm256_loadu_ps(b.data + b.rows[p] + b.off1);
}

/// 6 x 16 = twelve 8-lane accumulators + two B vectors + one broadcast,
/// exactly the 16 architectural YMM registers.
struct Avx2 {
    static constexpr int kRows = kMR;
    static constexpr bool kWideLone = false;  // a 6-row tile is already 12 chains

    template <int kRow, int R, class A>
    __attribute__((target("avx2,fma"), always_inline)) static void fma_row(
        __m256& lo, __m256& hi, const A& a, std::int64_t p, __m256 b0, __m256 b1) {
        if constexpr (kRow < R) {
            const __m256 av = _mm256_set1_ps(a.at(p, kRow));
            lo = _mm256_fmadd_ps(av, b0, lo);
            hi = _mm256_fmadd_ps(av, b1, hi);
        }
    }

    template <int kRow, int R>
    __attribute__((target("avx2,fma"), always_inline)) static void store_row(
        float* ENS_RESTRICT acc, __m256 lo, __m256 hi) {
        if constexpr (kRow < R) {
            _mm256_store_ps(acc + kRow * kNR, lo);
            _mm256_store_ps(acc + kRow * kNR + kNR / 2, hi);
        }
    }

    template <int R, class A, class B>
    __attribute__((target("avx2,fma"))) static void tile(std::int64_t kc, A a0, A /*a1*/, B b,
                                                         float* ENS_RESTRICT acc) {
        static_assert(kMR == 6 && kNR == 16 && R >= 1 && R <= kMR, "Avx2 spells out 6 x 16");
        __m256 c0_lo = _mm256_setzero_ps(), c0_hi = _mm256_setzero_ps();
        __m256 c1_lo = _mm256_setzero_ps(), c1_hi = _mm256_setzero_ps();
        __m256 c2_lo = _mm256_setzero_ps(), c2_hi = _mm256_setzero_ps();
        __m256 c3_lo = _mm256_setzero_ps(), c3_hi = _mm256_setzero_ps();
        __m256 c4_lo = _mm256_setzero_ps(), c4_hi = _mm256_setzero_ps();
        __m256 c5_lo = _mm256_setzero_ps(), c5_hi = _mm256_setzero_ps();
        for (std::int64_t p = 0; p < kc; ++p) {
            const __m256 b0 = ymm_lo(b, p);
            const __m256 b1 = ymm_hi(b, p);
            fma_row<0, R>(c0_lo, c0_hi, a0, p, b0, b1);
            fma_row<1, R>(c1_lo, c1_hi, a0, p, b0, b1);
            fma_row<2, R>(c2_lo, c2_hi, a0, p, b0, b1);
            fma_row<3, R>(c3_lo, c3_hi, a0, p, b0, b1);
            fma_row<4, R>(c4_lo, c4_hi, a0, p, b0, b1);
            fma_row<5, R>(c5_lo, c5_hi, a0, p, b0, b1);
        }
        store_row<0, R>(acc, c0_lo, c0_hi);
        store_row<1, R>(acc, c1_lo, c1_hi);
        store_row<2, R>(acc, c2_lo, c2_hi);
        store_row<3, R>(acc, c3_lo, c3_hi);
        store_row<4, R>(acc, c4_lo, c4_hi);
        store_row<5, R>(acc, c5_lo, c5_hi);
    }
};

__attribute__((target("avx512f"), always_inline)) inline __m512 zmm(const PanelB& b,
                                                                     std::int64_t p) {
    return _mm512_load_ps(b.bp + p * kNR);
}
__attribute__((target("avx512f"), always_inline)) inline __m512 zmm(const ImageB<1>& b,
                                                                     std::int64_t p) {
    return _mm512_loadu_ps(b.data + b.rows[p] + b.off0);
}
__attribute__((target("avx512f"), always_inline)) inline __m512 zmm(const ImageB<2>& b,
                                                                     std::int64_t p) {
    const float* in = b.data + b.rows[p];
    const __m256d lo = _mm256_castps_pd(_mm256_loadu_ps(in + b.off0));
    const __m256d hi = _mm256_castps_pd(_mm256_loadu_ps(in + b.off1));
    // The high half merged in by a masked broadcast: _mm512_insertf64x4
    // trips GCC 12's -Wmaybe-uninitialized inside its own header.
    return _mm512_castpd_ps(_mm512_mask_broadcast_f64x4(_mm512_castpd256_pd512(lo), 0xF0, hi));
}

/// AVX-512F: one 16-lane zmm is a whole kNR row of the tile, so a k step is
/// one B load and one broadcast-FMA per tile row. A lone 6 x 16 tile has
/// only six independent FMA chains, too few to hide FMA latency on two FMA
/// ports, so run_gemm hands this kernel two adjacent strips as one 12 x 16
/// tile (twelve accumulators + one B vector of the 32 ZMM registers)
/// wherever a strip has a partner.
struct Avx512 {
    static constexpr int kRows = 2 * kMR;
    static constexpr bool kWideLone = true;

    template <int kRow, int R, class A>
    __attribute__((target("avx512f"), always_inline)) static void fma_row(
        __m512& c, const A& a0, const A& a1, std::int64_t p, __m512 b) {
        if constexpr (kRow < R) {
            c = _mm512_fmadd_ps(_mm512_set1_ps(a_value<kRow>(a0, a1, p)), b, c);
        }
    }

    template <int kRow, int R>
    __attribute__((target("avx512f"), always_inline)) static void store_row(
        float* ENS_RESTRICT acc, __m512 c) {
        if constexpr (kRow < R) {
            _mm512_store_ps(acc + kRow * kNR, c);
        }
    }

    template <int R, class A, class B>
    __attribute__((target("avx512f"))) static void tile(std::int64_t kc, A a0, A a1, B b,
                                                        float* ENS_RESTRICT acc) {
        static_assert(kMR == 6 && kNR == 16 && R >= 1 && R <= 2 * kMR,
                      "Avx512 spells out up to 12 x 16");
        __m512 c0 = _mm512_setzero_ps(), c1 = _mm512_setzero_ps(), c2 = _mm512_setzero_ps();
        __m512 c3 = _mm512_setzero_ps(), c4 = _mm512_setzero_ps(), c5 = _mm512_setzero_ps();
        __m512 c6 = _mm512_setzero_ps(), c7 = _mm512_setzero_ps(), c8 = _mm512_setzero_ps();
        __m512 c9 = _mm512_setzero_ps(), c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
        for (std::int64_t p = 0; p < kc; ++p) {
            const __m512 bv = zmm(b, p);
            fma_row<0, R>(c0, a0, a1, p, bv);
            fma_row<1, R>(c1, a0, a1, p, bv);
            fma_row<2, R>(c2, a0, a1, p, bv);
            fma_row<3, R>(c3, a0, a1, p, bv);
            fma_row<4, R>(c4, a0, a1, p, bv);
            fma_row<5, R>(c5, a0, a1, p, bv);
            fma_row<6, R>(c6, a0, a1, p, bv);
            fma_row<7, R>(c7, a0, a1, p, bv);
            fma_row<8, R>(c8, a0, a1, p, bv);
            fma_row<9, R>(c9, a0, a1, p, bv);
            fma_row<10, R>(c10, a0, a1, p, bv);
            fma_row<11, R>(c11, a0, a1, p, bv);
        }
        store_row<0, R>(acc, c0);
        store_row<1, R>(acc, c1);
        store_row<2, R>(acc, c2);
        store_row<3, R>(acc, c3);
        store_row<4, R>(acc, c4);
        store_row<5, R>(acc, c5);
        store_row<6, R>(acc, c6);
        store_row<7, R>(acc, c7);
        store_row<8, R>(acc, c8);
        store_row<9, R>(acc, c9);
        store_row<10, R>(acc, c10);
        store_row<11, R>(acc, c11);
    }

    template <int kRow, int R, class A>
    __attribute__((target("avx512f"), always_inline)) static void fma_row_wide(
        __m512& c, __m512& d, const A& a, std::int64_t p, __m512 b0, __m512 b1) {
        if constexpr (kRow < R) {
            const __m512 av = _mm512_set1_ps(a.at(p, kRow));
            c = _mm512_fmadd_ps(av, b0, c);
            d = _mm512_fmadd_ps(av, b1, d);
        }
    }

    /// R <= kMR rows of one A strip against two adjacent B strips: acc rows
    /// 0..R-1 for b0 and kMR..kMR+R-1 for b1. A lone strip of 4 rows on one
    /// B strip has only four FMA chains and waits on FMA latency; over two
    /// it has eight.
    template <int R, class A, class B>
    __attribute__((target("avx512f"))) static void tile_wide(std::int64_t kc, A a, B b0, B b1,
                                                             float* ENS_RESTRICT acc) {
        static_assert(kMR == 6 && kNR == 16 && R >= 1 && R <= kMR,
                      "Avx512 spells out up to 6 x 32");
        __m512 c0 = _mm512_setzero_ps(), c1 = _mm512_setzero_ps(), c2 = _mm512_setzero_ps();
        __m512 c3 = _mm512_setzero_ps(), c4 = _mm512_setzero_ps(), c5 = _mm512_setzero_ps();
        __m512 d0 = _mm512_setzero_ps(), d1 = _mm512_setzero_ps(), d2 = _mm512_setzero_ps();
        __m512 d3 = _mm512_setzero_ps(), d4 = _mm512_setzero_ps(), d5 = _mm512_setzero_ps();
        for (std::int64_t p = 0; p < kc; ++p) {
            const __m512 bv0 = zmm(b0, p);
            const __m512 bv1 = zmm(b1, p);
            fma_row_wide<0, R>(c0, d0, a, p, bv0, bv1);
            fma_row_wide<1, R>(c1, d1, a, p, bv0, bv1);
            fma_row_wide<2, R>(c2, d2, a, p, bv0, bv1);
            fma_row_wide<3, R>(c3, d3, a, p, bv0, bv1);
            fma_row_wide<4, R>(c4, d4, a, p, bv0, bv1);
            fma_row_wide<5, R>(c5, d5, a, p, bv0, bv1);
        }
        float* ENS_RESTRICT acc1 = acc + kMR * kNR;
        store_row<0, R>(acc, c0);
        store_row<1, R>(acc, c1);
        store_row<2, R>(acc, c2);
        store_row<3, R>(acc, c3);
        store_row<4, R>(acc, c4);
        store_row<5, R>(acc, c5);
        store_row<0, R>(acc1, d0);
        store_row<1, R>(acc1, d1);
        store_row<2, R>(acc1, d2);
        store_row<3, R>(acc1, d3);
        store_row<4, R>(acc1, d4);
        store_row<5, R>(acc1, d5);
    }
};
#endif  // ENS_KERNEL_X86

#if defined(ENS_KERNEL_NEON)
/// 6 x 16 = twenty-four 4-lane accumulators + four B vectors + one
/// broadcast out of AArch64's 32 SIMD registers.
struct Neon {
    static constexpr int kRows = kMR;
    static constexpr bool kWideLone = false;

    template <int R, class A, class B>
    static void tile(std::int64_t kc, A a0, A /*a1*/, B b, float* ENS_RESTRICT acc) {
        float32x4_t c[R][4];
        for (int i = 0; i < R; ++i) {
            for (int q = 0; q < 4; ++q) {
                c[i][q] = vdupq_n_f32(0.0f);
            }
        }
        for (std::int64_t p = 0; p < kc; ++p) {
            float32x4_t bv[4];
            for (int q = 0; q < 4; ++q) {
                bv[q] = vld1q_f32(b.bp + p * kNR + 4 * q);
            }
            for (int i = 0; i < R; ++i) {
                const float32x4_t av = vdupq_n_f32(a0.at(p, i));
                for (int q = 0; q < 4; ++q) {
                    c[i][q] = vfmaq_f32(c[i][q], av, bv[q]);
                }
            }
        }
        for (int i = 0; i < R; ++i) {
            for (int q = 0; q < 4; ++q) {
                vst1q_f32(acc + i * kNR + 4 * q, c[i][q]);
            }
        }
    }
};
#endif  // ENS_KERNEL_NEON

/// Merges one slab's register tile into C. `first_slab` applies beta
/// (assignment when beta == 0, so C may start uninitialized / NaN);
/// later slabs accumulate. mr/nr clip the zero-padded tile edge.
inline void write_tile(float* ENS_RESTRICT c, std::int64_t ldc, const float* ENS_RESTRICT acc,
                       std::int64_t mr, std::int64_t nr, float alpha, float beta,
                       bool first_slab) {
    for (std::int64_t i = 0; i < mr; ++i) {
        float* ENS_RESTRICT crow = c + i * ldc;
        const float* ENS_RESTRICT arow = acc + i * kNR;
        if (!first_slab) {
            for (std::int64_t j = 0; j < nr; ++j) {
                crow[j] += alpha * arow[j];
            }
        } else if (beta == 0.0f) {
            for (std::int64_t j = 0; j < nr; ++j) {
                crow[j] = alpha * arow[j];
            }
        } else {
            for (std::int64_t j = 0; j < nr; ++j) {
                crow[j] = beta * crow[j] + alpha * arow[j];
            }
        }
    }
}

PackedMatrix& tls_scratch_a() {
    thread_local PackedMatrix scratch;
    return scratch;
}

PackedMatrix& tls_scratch_b() {
    thread_local PackedMatrix scratch;
    return scratch;
}

/// One image's im2col matrix, addressed in place: col[r][j] is
/// data[row[r] + pos[j]], where data is the zero-padded [C, H + 2p, W + 2p]
/// image (the image itself when padding is 0). row has one entry per patch
/// row (c, kh, kw), pos one per output position (oh, ow).
struct ConvSource {
    const float* data;
    const std::int64_t* row;
    const std::int64_t* pos;
};

/// Builds the padded copy and the offsets in per-thread, grow-only
/// scratch; valid until this thread's next call. The copy is zeroed whole
/// and then filled row by row: one memset beats a fill call per border run
/// when the maps are as small as 2x2.
ConvSource conv_source(const float* image, const ConvGeometry& g) {
    thread_local std::vector<float> padded;
    thread_local std::vector<std::int64_t> offsets;
    const std::int64_t pad = g.padding;
    const std::int64_t hp = g.in_h + 2 * pad;
    const std::int64_t wp = g.in_w + 2 * pad;
    const float* data = image;
    if (pad > 0) {
        padded.resize(std::max(padded.size(), static_cast<std::size_t>(g.in_channels * hp * wp)));
        std::fill_n(padded.data(), g.in_channels * hp * wp, 0.0f);
        float* out = padded.data() + pad * wp + pad;
        const float* in = image;
        for (std::int64_t c = 0; c < g.in_channels; ++c, out += 2 * pad * wp) {
            for (std::int64_t ih = 0; ih < g.in_h; ++ih, in += g.in_w, out += wp) {
                for (std::int64_t iw = 0; iw < g.in_w; ++iw) {
                    out[iw] = in[iw];
                }
            }
        }
        data = padded.data();
    }

    const std::int64_t k = g.patch_size();
    offsets.resize(std::max(offsets.size(), static_cast<std::size_t>(k + g.out_positions())));
    std::int64_t* off = offsets.data();
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
                *off++ = (c * hp + kh) * wp + kw;
            }
        }
    }
    for (std::int64_t oh = 0; oh < g.out_h(); ++oh) {
        for (std::int64_t ow = 0; ow < g.out_w(); ++ow) {
            *off++ = (oh * wp + ow) * g.stride;
        }
    }
    return {data, offsets.data(), offsets.data() + k};
}

/// Packs one strip of kLanes positions over kc patch rows, rows[p]
/// addressing each: out[p][l] = data[rows[p] + pos[l]] for the `live`
/// lanes and 0 for the ragged rest. The lane loop has a fixed trip count
/// (ragged lanes re-read lane 0, then select 0) so it unrolls.
template <std::int64_t kLanes>
void gather_strip(float* ENS_RESTRICT out, const float* ENS_RESTRICT data,
                  const std::int64_t* rows, std::int64_t kc, const std::int64_t* pos,
                  std::int64_t live) {
    std::int64_t off[kLanes];
    bool keep[kLanes];
    for (std::int64_t l = 0; l < kLanes; ++l) {
        keep[l] = l < live;
        off[l] = keep[l] ? pos[l] : pos[0];
    }
    for (std::int64_t p = 0; p < kc; ++p, out += kLanes) {
        const float* ENS_RESTRICT in = data + rows[p];
        for (std::int64_t l = 0; l < kLanes; ++l) {
            const float v = in[off[l]];
            out[l] = keep[l] ? v : 0.0f;
        }
    }
}

/// True when every kRun-lane group of a full kNR strip reads kRun adjacent
/// floats. Offsets strictly increase along a strip, so a group spanning
/// kRun - 1 is contiguous.
bool adjacent_runs(const std::int64_t* pos, std::int64_t run) {
    for (std::int64_t g = 0; g < kNR; g += run) {
        if (pos[g + run - 1] - pos[g] != run - 1) {
            return false;
        }
    }
    return true;
}

/// A full kNR strip as kNR / kRun fixed-size copies per patch row.
template <std::int64_t kRun>
void copy_runs(float* ENS_RESTRICT out, const float* ENS_RESTRICT data, const std::int64_t* rows,
               std::int64_t kc, const std::int64_t* pos) {
    for (std::int64_t p = 0; p < kc; ++p, out += kNR) {
        const float* ENS_RESTRICT in = data + rows[p];
        for (std::int64_t g = 0; g < kNR; g += kRun) {
            std::memcpy(out + g, in + pos[g], kRun * sizeof(float));
        }
    }
}

}  // namespace

namespace detail {

/// Read access to a pack's panels for the drivers below.
struct PanelAccess {
    static const float* panels(const PackedMatrix& p) { return p.data_.get(); }
};

}  // namespace detail

void PackedMatrix::FreeDeleter::operator()(float* p) const noexcept { std::free(p); }

void PackedMatrix::reserve(std::size_t floats) {
    if (floats <= capacity_) {
        return;
    }
    std::size_t bytes = floats * sizeof(float);
    bytes = (bytes + kPanelAlignment - 1) / kPanelAlignment * kPanelAlignment;
    float* raw = static_cast<float*>(std::aligned_alloc(kPanelAlignment, bytes));
    ENS_CHECK(raw != nullptr, "PackedMatrix: panel allocation failed");
    data_.reset(raw);
    capacity_ = bytes / sizeof(float);
}

void pack_a_into(PackedMatrix& dst, const float* a, std::int64_t lda, bool trans_a,
                 std::int64_t m, std::int64_t k) {
    ENS_REQUIRE(m > 0 && k > 0 && lda > 0, "pack_a: bad geometry");
    const std::int64_t strips = ceil_div(m, kMR);
    dst.reserve(static_cast<std::size_t>(strips * kMR * k));
    dst.rows_ = m;
    dst.cols_ = k;
    dst.is_a_ = true;
    float* out = dst.data_.get();
    for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
        const std::int64_t kc = std::min(kKC, k - k0);
        for (std::int64_t s = 0; s < strips; ++s) {
            const std::int64_t i0 = s * kMR;
            const std::int64_t mr = std::min(kMR, m - i0);
            if (!trans_a) {
                // op(A)[i][p] = a[i * lda + p]: strip columns gather down
                // the source rows.
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float* src = a + i0 * lda + (k0 + p);
                    for (std::int64_t r = 0; r < mr; ++r) {
                        out[r] = src[r * lda];
                    }
                    for (std::int64_t r = mr; r < kMR; ++r) {
                        out[r] = 0.0f;
                    }
                    out += kMR;
                }
            } else {
                // op(A)[i][p] = a[p * lda + i]: each p reads contiguously.
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float* src = a + (k0 + p) * lda + i0;
                    std::memcpy(out, src, static_cast<std::size_t>(mr) * sizeof(float));
                    for (std::int64_t r = mr; r < kMR; ++r) {
                        out[r] = 0.0f;
                    }
                    out += kMR;
                }
            }
        }
    }
}

void pack_b_into(PackedMatrix& dst, const float* b, std::int64_t ldb, bool trans_b,
                 std::int64_t k, std::int64_t n) {
    ENS_REQUIRE(k > 0 && n > 0 && ldb > 0, "pack_b: bad geometry");
    const std::int64_t jstrips = ceil_div(n, kNR);
    dst.reserve(static_cast<std::size_t>(jstrips * kNR * k));
    dst.rows_ = k;
    dst.cols_ = n;
    dst.is_a_ = false;
    float* out = dst.data_.get();
    for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
        const std::int64_t kc = std::min(kKC, k - k0);
        for (std::int64_t s = 0; s < jstrips; ++s) {
            const std::int64_t j0 = s * kNR;
            const std::int64_t nr = std::min(kNR, n - j0);
            if (!trans_b) {
                // op(B)[p][j] = b[p * ldb + j]: each p copies a contiguous
                // run of nr floats.
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float* src = b + (k0 + p) * ldb + j0;
                    std::memcpy(out, src, static_cast<std::size_t>(nr) * sizeof(float));
                    for (std::int64_t j = nr; j < kNR; ++j) {
                        out[j] = 0.0f;
                    }
                    out += kNR;
                }
            } else {
                // op(B)[p][j] = b[j * ldb + p]: gather down source rows.
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float* src = b + j0 * ldb + (k0 + p);
                    for (std::int64_t j = 0; j < nr; ++j) {
                        out[j] = src[j * ldb];
                    }
                    for (std::int64_t j = nr; j < kNR; ++j) {
                        out[j] = 0.0f;
                    }
                    out += kNR;
                }
            }
        }
    }
}

void pack_conv_a_into(PackedMatrix& dst, const float* image, const ConvGeometry& geom) {
    const std::int64_t m = geom.out_positions();
    const std::int64_t k = geom.patch_size();
    ENS_REQUIRE(geom.out_h() > 0 && geom.out_w() > 0 && k > 0, "pack_conv_a: bad geometry");
    const ConvSource src = conv_source(image, geom);
    const std::int64_t strips = ceil_div(m, kMR);
    dst.reserve(static_cast<std::size_t>(strips * kMR * k));
    dst.rows_ = m;
    dst.cols_ = k;
    dst.is_a_ = true;
    float* out = dst.data_.get();
    for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
        const std::int64_t kc = std::min(kKC, k - k0);
        for (std::int64_t s = 0; s < strips; ++s, out += kc * kMR) {
            gather_strip<kMR>(out, src.data, src.row + k0, kc, src.pos + s * kMR,
                              std::min(kMR, m - s * kMR));
        }
    }
}

void pack_conv_b_into(PackedMatrix& dst, const float* image, const ConvGeometry& geom) {
    const std::int64_t k = geom.patch_size();
    const std::int64_t n = geom.out_positions();
    ENS_REQUIRE(geom.out_h() > 0 && geom.out_w() > 0 && k > 0, "pack_conv_b: bad geometry");
    const ConvSource src = conv_source(image, geom);
    const std::int64_t jstrips = ceil_div(n, kNR);
    dst.reserve(static_cast<std::size_t>(jstrips * kNR * k));
    dst.rows_ = k;
    dst.cols_ = n;
    dst.is_a_ = false;
    float* out = dst.data_.get();
    for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
        const std::int64_t kc = std::min(kKC, k - k0);
        const std::int64_t* row = src.row + k0;
        for (std::int64_t s = 0; s < jstrips; ++s, out += kc * kNR) {
            const std::int64_t* pos = src.pos + s * kNR;
            const std::int64_t nr = std::min(kNR, n - s * kNR);
            // At stride 1 a strip covers whole output rows (or aligned
            // pieces of one), so it copies runs of adjacent floats.
            if (nr < kNR) {
                gather_strip<kNR>(out, src.data, row, kc, pos, nr);
            } else if (adjacent_runs(pos, kNR)) {
                copy_runs<kNR>(out, src.data, row, kc, pos);
            } else if (adjacent_runs(pos, kNR / 2)) {
                copy_runs<kNR / 2>(out, src.data, row, kc, pos);
            } else if (adjacent_runs(pos, kNR / 4)) {
                copy_runs<kNR / 4>(out, src.data, row, kc, pos);
            } else {
                gather_strip<kNR>(out, src.data, row, kc, pos, kNR);
            }
        }
    }
}

PackedMatrix pack_a(const float* a, std::int64_t lda, bool trans_a, std::int64_t m,
                    std::int64_t k) {
    PackedMatrix packed;
    pack_a_into(packed, a, lda, trans_a, m, k);
    return packed;
}

PackedMatrix pack_b(const float* b, std::int64_t ldb, bool trans_b, std::int64_t k,
                    std::int64_t n) {
    PackedMatrix packed;
    pack_b_into(packed, b, ldb, trans_b, k, n);
    return packed;
}

namespace {

/// Where run_gemm finds one kc slab's strips: a(k0, kc, is) is A strip is,
/// b(k0, js) B strip js. Each is built from Operands and the product's m.
struct Operands {
    const float* apack = nullptr;  // packed A panels, unless A is the image
    const float* bpack = nullptr;  // packed B panels, unless B is the image
    ConvSource image{};            // the image side of an implicit lowering
};

/// Both operands packed.
struct PanelOps {
    const float* apack;
    const float* bpack;
    std::int64_t strips, jstrips;

    static PanelOps make(const Operands& o, std::int64_t m, std::int64_t n) {
        return {o.apack, o.bpack, ceil_div(m, kMR), ceil_div(n, kNR)};
    }
    PanelA a(std::int64_t k0, std::int64_t kc, std::int64_t is) const {
        return {apack + (strips * k0 + is * kc) * kMR};
    }
    PanelB b(std::int64_t k0, std::int64_t kc, std::int64_t js) const {
        return {bpack + (jstrips * k0 + js * kc) * kNR};
    }
};

/// col^T from the image as A, the weight packed as W^T as B.
struct ImageAOps {
    ConvSource image;
    std::int64_t m;
    PanelOps weight;

    static ImageAOps make(const Operands& o, std::int64_t m, std::int64_t n) {
        return {o.image, m, PanelOps::make(o, m, n)};
    }
    ImageA a(std::int64_t k0, std::int64_t /*kc*/, std::int64_t is) const {
        ImageA src{image.data, image.row + k0, {}};
        const std::int64_t* pos = image.pos + is * kMR;
        const std::int64_t live = std::min(kMR, m - is * kMR);
        for (std::int64_t r = 0; r < kMR; ++r) {
            src.off[r] = pos[r < live ? r : 0];
        }
        return src;
    }
    PanelB b(std::int64_t k0, std::int64_t kc, std::int64_t js) const {
        return weight.b(k0, kc, js);
    }
};

/// The weight packed as A, col from the image as B, in kRuns runs per
/// strip.
template <int kRuns>
struct ImageBOps {
    PanelOps weight;
    ConvSource image;

    static ImageBOps make(const Operands& o, std::int64_t m, std::int64_t n) {
        return {PanelOps::make(o, m, n), o.image};
    }
    PanelA a(std::int64_t k0, std::int64_t kc, std::int64_t is) const {
        return weight.a(k0, kc, is);
    }
    ImageB<kRuns> b(std::int64_t k0, std::int64_t /*kc*/, std::int64_t js) const {
        const std::int64_t* pos = image.pos + js * kNR;
        return {image.data, image.row + k0, pos[0], pos[kNR / 2]};
    }
};

/// Calls f(std::integral_constant<int, live>) for 1 <= live <= kMR, so a
/// lone strip's live row count becomes a tile template argument.
template <class F>
void with_live_rows(std::int64_t live, F&& f) {
    switch (live) {
        case 1: f(std::integral_constant<int, 1>{}); return;
        case 2: f(std::integral_constant<int, 2>{}); return;
        case 3: f(std::integral_constant<int, 3>{}); return;
        case 4: f(std::integral_constant<int, 4>{}); return;
        case 5: f(std::integral_constant<int, 5>{}); return;
        default: f(std::integral_constant<int, kMR>{}); return;
    }
}

/// Two adjacent strips: one 2kMR-row tile where the ISA holds one, else two
/// kMR-row tiles.
template <class Isa, class A, class B>
void strip_pair(std::int64_t kc, const A& a0, const A& a1, const B& b, float* acc) {
    if constexpr (Isa::kRows == 2 * kMR) {
        Isa::template tile<2 * kMR>(kc, a0, a1, b, acc);
    } else {
        Isa::template tile<kMR>(kc, a0, a0, b, acc);
        Isa::template tile<kMR>(kc, a1, a1, b, acc + kMR * kNR);
    }
}

/// The lone last strip at its live row count against B strips b0 and b1:
/// acc rows 0..live-1 for b0, kMR.. for b1. Its ragged rows are zeros in a
/// packed panel and re-reads in an image strip, so skipping them changes
/// no live row. One wide tile where the ISA has one, else a tile per strip.
template <class Isa, class A, class B>
void lone_strip_wide(std::int64_t kc, std::int64_t live, const A& a, const B& b0, const B& b1,
                     float* acc) {
    with_live_rows(live, [&](auto rows) {
        if constexpr (Isa::kWideLone) {
            Isa::template tile_wide<rows()>(kc, a, b0, b1, acc);
        } else {
            Isa::template tile<rows()>(kc, a, a, b0, acc);
            Isa::template tile<rows()>(kc, a, a, b1, acc + kMR * kNR);
        }
    });
}

/// The cache-blocked loop nest over one micro-kernel and one operand
/// layout; operands checked by the caller.
template <class Isa, class Ops>
void run_gemm(const Operands& operands, std::int64_t m, std::int64_t n, std::int64_t k, float* c,
              std::int64_t ldc, float alpha, float beta, bool parallel) {
    const Ops ops = Ops::make(operands, m, n);
    const std::int64_t strips = ceil_div(m, kMR);
    const std::int64_t pairs = ceil_div(strips, 2);
    const std::int64_t jstrips = ceil_div(n, kNR);
    const std::int64_t strips_per_mc = kMC / kMR;
    static_assert(kMC % (2 * kMR) == 0, "an m block holds whole strip pairs");

    // One task owns the C tiles of strip pairs [lo, hi) outright and walks
    // the k slabs in a fixed serial order, so the result is bit-identical
    // for every chunking parallel_for picks (and for the serial path).
    // Tasks and m blocks both start on an even strip, so every strip but a
    // last odd one runs paired whatever the chunking. That lone strip runs
    // after its block's pairs, over two B strips at a time.
    const auto run_pairs = [&](std::size_t lo_p, std::size_t hi_p) {
        const std::int64_t lo = 2 * static_cast<std::int64_t>(lo_p);
        const std::int64_t hi = std::min(strips, 2 * static_cast<std::int64_t>(hi_p));
        alignas(kPanelAlignment) float acc[2 * kMR * kNR];
        for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
            const std::int64_t kc = std::min(kKC, k - k0);
            const bool first_slab = (k0 == 0);
            const auto store = [&](std::int64_t is, std::int64_t js, const float* tile) {
                write_tile(c + is * kMR * ldc + js * kNR, ldc, tile,
                           std::min(2 * kMR, m - is * kMR), std::min(kNR, n - js * kNR), alpha,
                           beta, first_slab);
            };
            for (std::int64_t ic = lo; ic < hi; ic += strips_per_mc) {
                const std::int64_t ic_end = std::min(hi, ic + strips_per_mc);
                const std::int64_t paired_end = ic + (ic_end - ic) / 2 * 2;
                for (std::int64_t js = 0; js < jstrips; ++js) {
                    const auto b = ops.b(k0, kc, js);
                    for (std::int64_t is = ic; is < paired_end; is += 2) {
                        strip_pair<Isa>(kc, ops.a(k0, kc, is), ops.a(k0, kc, is + 1), b, acc);
                        store(is, js, acc);
                    }
                }
                if (paired_end == ic_end) {
                    continue;
                }
                const auto a = ops.a(k0, kc, paired_end);
                const std::int64_t live = std::min(kMR, m - paired_end * kMR);
                for (std::int64_t js = 0; js < jstrips; js += 2) {
                    if (js + 1 < jstrips) {
                        lone_strip_wide<Isa>(kc, live, a, ops.b(k0, kc, js),
                                             ops.b(k0, kc, js + 1), acc);
                        store(paired_end, js, acc);
                        store(paired_end, js + 1, acc + kMR * kNR);
                    } else {
                        with_live_rows(live, [&](auto rows) {
                            Isa::template tile<rows()>(kc, a, a, ops.b(k0, kc, js), acc);
                        });
                        store(paired_end, js, acc);
                    }
                }
            }
        }
    };

    const std::int64_t flops = 2 * m * n * k;
    if (parallel && pairs > 1 && flops >= kParallelMinFlops) {
        parallel_for(0, static_cast<std::size_t>(pairs), run_pairs);
    } else {
        run_pairs(0, static_cast<std::size_t>(pairs));
    }
}

/// How a conv image meets its packed weight: both packed, or one of the
/// implicit forms reading the image in place.
enum Lowering : std::size_t { kPacked, kImageA, kImageB16, kImageB8, kLowerings };
constexpr const char* kLoweringNames[kLowerings] = {"packed", "implicit_a", "implicit_b16",
                                                    "implicit_b8"};

using Driver = void (*)(const Operands&, std::int64_t m, std::int64_t n, std::int64_t k,
                        float* c, std::int64_t ldc, float alpha, float beta, bool parallel);

struct Kernel {
    const char* name;
    Driver drivers[kLowerings];  // null where this ISA keeps packed operands
};

template <class Isa>
Kernel packed_only(const char* name) {
    return {name, {run_gemm<Isa, PanelOps>, nullptr, nullptr, nullptr}};
}

template <class Isa>
Kernel with_implicit(const char* name) {
    return {name,
            {run_gemm<Isa, PanelOps>, run_gemm<Isa, ImageAOps>, run_gemm<Isa, ImageBOps<1>>,
             run_gemm<Isa, ImageBOps<2>>}};
}

/// Every micro-kernel this host can run, fastest first; "portable" is
/// always last. Chosen by CPUID (x86) or at compile time (NEON) only. NEON
/// and portable keep packed operands: no NEON host is in reach to build or
/// measure implicit forms on, and no host runs portable.
const std::vector<Kernel>& host_kernels() {
    static const std::vector<Kernel> kernels = [] {
        std::vector<Kernel> k;
#if defined(ENS_KERNEL_X86)
        if (__builtin_cpu_supports("avx512f")) {
            k.push_back(with_implicit<Avx512>("avx512"));
        }
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
            k.push_back(with_implicit<Avx2>("avx2"));
        }
#endif
#if defined(ENS_KERNEL_NEON)
        k.push_back(packed_only<Neon>("neon"));
#endif
        k.push_back(packed_only<Portable>("portable"));
        return k;
    }();
    return kernels;
}

const Kernel& dispatch() { return host_kernels().front(); }

const Kernel& kernel_named(const char* isa) {
    const std::vector<Kernel>& kernels = host_kernels();
    const auto kern = std::find_if(kernels.begin(), kernels.end(), [&](const Kernel& kn) {
        return std::strcmp(kn.name, isa) == 0;
    });
    ENS_REQUIRE(kern != kernels.end(),
                std::string("kernel: this host has no '") + isa + "' micro-kernel");
    return *kern;
}

/// The lowering `kern` runs for a weight packed as A (W · col) or as B
/// (col^T · W^T). Every transposed conv reads col^T in place, at any stride
/// and kernel size. W · col reads col in place only at stride 1 when each
/// kNR strip is whole runs of one or two output rows: rows a multiple of
/// kNR wide, or kNR / 2 wide in pairs. Other strips (stride 2, 4-wide rows,
/// ragged strips) would be gathers, and keep pack_conv_b_into.
Lowering conv_lowering_for(const Kernel& kern, bool weight_is_a, const ConvGeometry& g) {
    Lowering lowering = kPacked;
    if (!weight_is_a) {
        lowering = kImageA;
    } else if (g.stride == 1 && g.out_w() % kNR == 0) {
        lowering = kImageB16;
    } else if (g.stride == 1 && g.out_w() == kNR / 2 && g.out_h() % 2 == 0) {
        lowering = kImageB8;
    }
    return kern.drivers[lowering] != nullptr ? lowering : kPacked;
}

void check_operands(const PackedMatrix& a, const PackedMatrix& b, std::int64_t ldc) {
    ENS_REQUIRE(a.defined() && b.defined(), "gemm_packed: undefined operand pack");
    ENS_REQUIRE(a.is_a() && !b.is_a(), "gemm_packed: operands packed for the wrong side");
    ENS_REQUIRE(a.cols() == b.rows(), "gemm_packed: inner dimension mismatch");
    ENS_REQUIRE(ldc >= b.cols(), "gemm_packed: ldc too small");
}

void run_packed(const Kernel& kern, const PackedMatrix& a, const PackedMatrix& b, float* c,
                std::int64_t ldc, float alpha, float beta, bool parallel) {
    check_operands(a, b, ldc);
    Operands ops;
    ops.apack = detail::PanelAccess::panels(a);
    ops.bpack = detail::PanelAccess::panels(b);
    kern.drivers[kPacked](ops, a.rows(), b.cols(), a.cols(), c, ldc, alpha, beta, parallel);
}

void run_conv(const Kernel& kern, const PackedMatrix& weight, const float* image,
              const ConvGeometry& g, float* c, bool parallel) {
    const std::int64_t k = g.patch_size();
    const std::int64_t positions = g.out_positions();
    ENS_REQUIRE(g.out_h() > 0 && g.out_w() > 0 && k > 0, "conv_gemm: bad geometry");
    ENS_REQUIRE(weight.defined() && (weight.is_a() ? weight.cols() : weight.rows()) == k,
                "conv_gemm: weight pack does not match the patch size");
    const Lowering lowering = conv_lowering_for(kern, weight.is_a(), g);
    if (lowering == kPacked) {
        if (weight.is_a()) {
            PackedMatrix& cols = tls_scratch_b();
            pack_conv_b_into(cols, image, g);
            run_packed(kern, weight, cols, c, positions, 1.0f, 0.0f, parallel);
        } else {
            PackedMatrix& cols = tls_scratch_a();
            pack_conv_a_into(cols, image, g);
            run_packed(kern, cols, weight, c, weight.cols(), 1.0f, 0.0f, parallel);
        }
        return;
    }
    Operands ops;
    ops.image = conv_source(image, g);
    const std::int64_t m = weight.is_a() ? weight.rows() : positions;
    const std::int64_t n = weight.is_a() ? positions : weight.cols();
    (weight.is_a() ? ops.apack : ops.bpack) = detail::PanelAccess::panels(weight);
    kern.drivers[lowering](ops, m, n, k, c, n, 1.0f, 0.0f, parallel);
}

}  // namespace

void gemm_packed(const PackedMatrix& a, const PackedMatrix& b, float* c, std::int64_t ldc,
                 float alpha, float beta, bool parallel) {
    run_packed(dispatch(), a, b, c, ldc, alpha, beta, parallel);
}

void gemm_packed_b(const float* a, std::int64_t lda, bool trans_a, std::int64_t m,
                   const PackedMatrix& b, float* c, std::int64_t ldc, float alpha, float beta,
                   bool parallel) {
    ENS_REQUIRE(b.defined() && !b.is_a(), "gemm_packed_b: operand is not a B pack");
    PackedMatrix& scratch = tls_scratch_a();
    pack_a_into(scratch, a, lda, trans_a, m, /*k=*/b.rows());
    gemm_packed(scratch, b, c, ldc, alpha, beta, parallel);
}

void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                  std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb, bool trans_b,
                  float* c, std::int64_t ldc, float alpha, float beta, bool parallel) {
    PackedMatrix& sa = tls_scratch_a();
    PackedMatrix& sb = tls_scratch_b();
    pack_a_into(sa, a, lda, trans_a, m, k);
    pack_b_into(sb, b, ldb, trans_b, k, n);
    gemm_packed(sa, sb, c, ldc, alpha, beta, parallel);
}

void conv_gemm(const PackedMatrix& weight, const float* image, const ConvGeometry& geom, float* c,
               bool parallel) {
    run_conv(dispatch(), weight, image, geom, c, parallel);
}

const char* kernel_isa() { return dispatch().name; }

namespace detail {

std::vector<const char*> host_isas() {
    std::vector<const char*> names;
    for (const Kernel& kern : host_kernels()) {
        names.push_back(kern.name);
    }
    return names;
}

void gemm_packed_isa(const char* isa, const PackedMatrix& a, const PackedMatrix& b, float* c,
                     std::int64_t ldc, float alpha, float beta, bool parallel) {
    run_packed(kernel_named(isa), a, b, c, ldc, alpha, beta, parallel);
}

const char* conv_lowering(const char* isa, const PackedMatrix& weight, const ConvGeometry& geom) {
    return kLoweringNames[conv_lowering_for(kernel_named(isa), weight.is_a(), geom)];
}

void conv_gemm_isa(const char* isa, const PackedMatrix& weight, const float* image,
                   const ConvGeometry& geom, float* c, bool parallel) {
    run_conv(kernel_named(isa), weight, image, geom, c, parallel);
}

}  // namespace detail

}  // namespace ens::kernel
