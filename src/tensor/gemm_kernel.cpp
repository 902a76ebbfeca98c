#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
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

// ------------------------------------------------------------ micro-kernels
//
// Every micro-kernel computes acc = op(A)-strips @ op(B)-strip over one
// kc-deep slab, reading the packed panels at stride 1: ap is kc steps of
// kMR floats (one column of the A strip each), bp is kc steps of kNR
// floats (one row of the B strip each). A one-strip kernel fills a kMR x
// kNR acc; a paired kernel takes the strip at ap and the next strip of the
// same slab, at ap + kMR * kc, and fills 2 * kMR x kNR. acc is kNR-
// strided, 64-byte aligned, overwritten (not accumulated — run_gemm
// merges slabs into C so the slab order, and therefore the rounding, is
// fixed). Pairing changes only how many C rows one call covers: each C
// element is still one FMA chain over p in order.

using MicroFn = void (*)(std::int64_t kc, const float* ENS_RESTRICT ap,
                         const float* ENS_RESTRICT bp, float* ENS_RESTRICT acc);

void micro_portable(std::int64_t kc, const float* ENS_RESTRICT ap, const float* ENS_RESTRICT bp,
                    float* ENS_RESTRICT acc) {
    float tile[kMR * kNR] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float* ENS_RESTRICT b = bp + p * kNR;
        const float* ENS_RESTRICT a = ap + p * kMR;
        for (int i = 0; i < kMR; ++i) {
            const float av = a[i];
            float* ENS_RESTRICT row = tile + i * kNR;
            for (int j = 0; j < kNR; ++j) {
                row[j] += av * b[j];
            }
        }
    }
    std::memcpy(acc, tile, sizeof(tile));
}

#if defined(ENS_KERNEL_X86)
// 6 x 16 = twelve 8-lane accumulators + two B vectors + one broadcast,
// exactly the 16 architectural YMM registers.
//
// The accumulators are twelve named variables, not __m256 c_lo[kMR] /
// c_hi[kMR] arrays. With the arrays, GCC 12 -O3 kept the tile in
// ymm2-ymm13 but also stored all twelve back to the arrays' stack slots on
// every k step (12 vmovaps stores beside 12 FMAs), which capped 256^3
// `packed` in BENCH_kernels at ~29-40 GFLOP/s on one AVX2 core. Check
// before folding them back into an array or loop: in
//   objdump -d --no-show-raw-insn -C build/CMakeFiles/ens.dir/src/tensor/gemm_kernel.cpp.o
// the k loop of micro_avx2 must hold only loads, broadcasts and FMAs, and
// no store to (%rsp).
__attribute__((target("avx2,fma"))) void micro_avx2(std::int64_t kc,
                                                    const float* ENS_RESTRICT ap,
                                                    const float* ENS_RESTRICT bp,
                                                    float* ENS_RESTRICT acc) {
    static_assert(kMR == 6 && kNR == 16, "micro_avx2 spells out a 6 x 16 tile");
    __m256 c0_lo = _mm256_setzero_ps(), c0_hi = _mm256_setzero_ps();
    __m256 c1_lo = _mm256_setzero_ps(), c1_hi = _mm256_setzero_ps();
    __m256 c2_lo = _mm256_setzero_ps(), c2_hi = _mm256_setzero_ps();
    __m256 c3_lo = _mm256_setzero_ps(), c3_hi = _mm256_setzero_ps();
    __m256 c4_lo = _mm256_setzero_ps(), c4_hi = _mm256_setzero_ps();
    __m256 c5_lo = _mm256_setzero_ps(), c5_hi = _mm256_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m256 b0 = _mm256_load_ps(bp);
        const __m256 b1 = _mm256_load_ps(bp + 8);
        bp += kNR;
        __m256 av = _mm256_broadcast_ss(ap + 0);
        c0_lo = _mm256_fmadd_ps(av, b0, c0_lo);
        c0_hi = _mm256_fmadd_ps(av, b1, c0_hi);
        av = _mm256_broadcast_ss(ap + 1);
        c1_lo = _mm256_fmadd_ps(av, b0, c1_lo);
        c1_hi = _mm256_fmadd_ps(av, b1, c1_hi);
        av = _mm256_broadcast_ss(ap + 2);
        c2_lo = _mm256_fmadd_ps(av, b0, c2_lo);
        c2_hi = _mm256_fmadd_ps(av, b1, c2_hi);
        av = _mm256_broadcast_ss(ap + 3);
        c3_lo = _mm256_fmadd_ps(av, b0, c3_lo);
        c3_hi = _mm256_fmadd_ps(av, b1, c3_hi);
        av = _mm256_broadcast_ss(ap + 4);
        c4_lo = _mm256_fmadd_ps(av, b0, c4_lo);
        c4_hi = _mm256_fmadd_ps(av, b1, c4_hi);
        av = _mm256_broadcast_ss(ap + 5);
        c5_lo = _mm256_fmadd_ps(av, b0, c5_lo);
        c5_hi = _mm256_fmadd_ps(av, b1, c5_hi);
        ap += kMR;
    }
    _mm256_store_ps(acc + 0 * kNR, c0_lo);
    _mm256_store_ps(acc + 0 * kNR + 8, c0_hi);
    _mm256_store_ps(acc + 1 * kNR, c1_lo);
    _mm256_store_ps(acc + 1 * kNR + 8, c1_hi);
    _mm256_store_ps(acc + 2 * kNR, c2_lo);
    _mm256_store_ps(acc + 2 * kNR + 8, c2_hi);
    _mm256_store_ps(acc + 3 * kNR, c3_lo);
    _mm256_store_ps(acc + 3 * kNR + 8, c3_hi);
    _mm256_store_ps(acc + 4 * kNR, c4_lo);
    _mm256_store_ps(acc + 4 * kNR + 8, c4_hi);
    _mm256_store_ps(acc + 5 * kNR, c5_lo);
    _mm256_store_ps(acc + 5 * kNR + 8, c5_hi);
}

// AVX-512F: one 16-lane zmm is a whole kNR row of the tile, so a k step is
// one B load and one broadcast-FMA per tile row. A lone 6 x 16 tile has
// only six independent FMA chains, too few to hide FMA latency on two
// FMA ports; micro_avx512_pair runs two adjacent strips as a 12 x 16 tile
// (twelve accumulators + one B vector of the 32 ZMM registers) and is the
// kernel run_gemm uses wherever a strip has a partner. Both keep the
// accumulators in named variables for the reason given at micro_avx2.
// Check before folding them into an array or loop: in the objdump above,
// the k loops of micro_avx512 and micro_avx512_pair must hold only loads,
// broadcasts and FMAs, and no store to (%rsp).
__attribute__((target("avx512f"))) void micro_avx512(std::int64_t kc,
                                                     const float* ENS_RESTRICT ap,
                                                     const float* ENS_RESTRICT bp,
                                                     float* ENS_RESTRICT acc) {
    static_assert(kMR == 6 && kNR == 16, "micro_avx512 spells out a 6 x 16 tile");
    __m512 c0 = _mm512_setzero_ps(), c1 = _mm512_setzero_ps(), c2 = _mm512_setzero_ps();
    __m512 c3 = _mm512_setzero_ps(), c4 = _mm512_setzero_ps(), c5 = _mm512_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m512 b = _mm512_load_ps(bp);
        bp += kNR;
        c0 = _mm512_fmadd_ps(_mm512_set1_ps(ap[0]), b, c0);
        c1 = _mm512_fmadd_ps(_mm512_set1_ps(ap[1]), b, c1);
        c2 = _mm512_fmadd_ps(_mm512_set1_ps(ap[2]), b, c2);
        c3 = _mm512_fmadd_ps(_mm512_set1_ps(ap[3]), b, c3);
        c4 = _mm512_fmadd_ps(_mm512_set1_ps(ap[4]), b, c4);
        c5 = _mm512_fmadd_ps(_mm512_set1_ps(ap[5]), b, c5);
        ap += kMR;
    }
    _mm512_store_ps(acc + 0 * kNR, c0);
    _mm512_store_ps(acc + 1 * kNR, c1);
    _mm512_store_ps(acc + 2 * kNR, c2);
    _mm512_store_ps(acc + 3 * kNR, c3);
    _mm512_store_ps(acc + 4 * kNR, c4);
    _mm512_store_ps(acc + 5 * kNR, c5);
}

__attribute__((target("avx512f"))) void micro_avx512_pair(std::int64_t kc,
                                                          const float* ENS_RESTRICT ap,
                                                          const float* ENS_RESTRICT bp,
                                                          float* ENS_RESTRICT acc) {
    static_assert(kMR == 6 && kNR == 16, "micro_avx512_pair spells out a 12 x 16 tile");
    const float* ENS_RESTRICT aq = ap + kMR * kc;  // the second strip
    __m512 c0 = _mm512_setzero_ps(), c1 = _mm512_setzero_ps(), c2 = _mm512_setzero_ps();
    __m512 c3 = _mm512_setzero_ps(), c4 = _mm512_setzero_ps(), c5 = _mm512_setzero_ps();
    __m512 c6 = _mm512_setzero_ps(), c7 = _mm512_setzero_ps(), c8 = _mm512_setzero_ps();
    __m512 c9 = _mm512_setzero_ps(), c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m512 b = _mm512_load_ps(bp);
        bp += kNR;
        c0 = _mm512_fmadd_ps(_mm512_set1_ps(ap[0]), b, c0);
        c1 = _mm512_fmadd_ps(_mm512_set1_ps(ap[1]), b, c1);
        c2 = _mm512_fmadd_ps(_mm512_set1_ps(ap[2]), b, c2);
        c3 = _mm512_fmadd_ps(_mm512_set1_ps(ap[3]), b, c3);
        c4 = _mm512_fmadd_ps(_mm512_set1_ps(ap[4]), b, c4);
        c5 = _mm512_fmadd_ps(_mm512_set1_ps(ap[5]), b, c5);
        c6 = _mm512_fmadd_ps(_mm512_set1_ps(aq[0]), b, c6);
        c7 = _mm512_fmadd_ps(_mm512_set1_ps(aq[1]), b, c7);
        c8 = _mm512_fmadd_ps(_mm512_set1_ps(aq[2]), b, c8);
        c9 = _mm512_fmadd_ps(_mm512_set1_ps(aq[3]), b, c9);
        c10 = _mm512_fmadd_ps(_mm512_set1_ps(aq[4]), b, c10);
        c11 = _mm512_fmadd_ps(_mm512_set1_ps(aq[5]), b, c11);
        ap += kMR;
        aq += kMR;
    }
    _mm512_store_ps(acc + 0 * kNR, c0);
    _mm512_store_ps(acc + 1 * kNR, c1);
    _mm512_store_ps(acc + 2 * kNR, c2);
    _mm512_store_ps(acc + 3 * kNR, c3);
    _mm512_store_ps(acc + 4 * kNR, c4);
    _mm512_store_ps(acc + 5 * kNR, c5);
    _mm512_store_ps(acc + 6 * kNR, c6);
    _mm512_store_ps(acc + 7 * kNR, c7);
    _mm512_store_ps(acc + 8 * kNR, c8);
    _mm512_store_ps(acc + 9 * kNR, c9);
    _mm512_store_ps(acc + 10 * kNR, c10);
    _mm512_store_ps(acc + 11 * kNR, c11);
}
#endif  // ENS_KERNEL_X86

#if defined(ENS_KERNEL_NEON)
void micro_neon(std::int64_t kc, const float* ENS_RESTRICT ap, const float* ENS_RESTRICT bp,
                float* ENS_RESTRICT acc) {
    // 6 x 16 = twenty-four 4-lane accumulators + four B vectors + one
    // broadcast out of AArch64's 32 SIMD registers.
    float32x4_t c[kMR][4];
    for (int i = 0; i < kMR; ++i) {
        for (int q = 0; q < 4; ++q) {
            c[i][q] = vdupq_n_f32(0.0f);
        }
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        float32x4_t b[4];
        for (int q = 0; q < 4; ++q) {
            b[q] = vld1q_f32(bp + 4 * q);
        }
        bp += kNR;
        for (int i = 0; i < kMR; ++i) {
            const float32x4_t av = vdupq_n_f32(ap[i]);
            for (int q = 0; q < 4; ++q) {
                c[i][q] = vfmaq_f32(c[i][q], av, b[q]);
            }
        }
        ap += kMR;
    }
    for (int i = 0; i < kMR; ++i) {
        for (int q = 0; q < 4; ++q) {
            vst1q_f32(acc + i * kNR + 4 * q, c[i][q]);
        }
    }
}
#endif  // ENS_KERNEL_NEON

/// Two adjacent strips as two calls of a one-strip kernel, for ISAs whose
/// register file holds one tile.
template <MicroFn kOne>
void two_strips(std::int64_t kc, const float* ENS_RESTRICT ap, const float* ENS_RESTRICT bp,
                float* ENS_RESTRICT acc) {
    kOne(kc, ap, bp, acc);
    kOne(kc, ap + kMR * kc, bp, acc + kMR * kNR);
}

struct Kernel {
    const char* name;
    MicroFn one;   // one strip: kMR x kNR acc
    MicroFn pair;  // two adjacent strips: 2 * kMR x kNR acc
};

/// Every micro-kernel this host can run, fastest first; "portable" is
/// always last. Chosen by CPUID (x86) or at compile time (NEON) only.
const std::vector<Kernel>& host_kernels() {
    static const std::vector<Kernel> kernels = [] {
        std::vector<Kernel> k;
#if defined(ENS_KERNEL_X86)
        if (__builtin_cpu_supports("avx512f")) {
            k.push_back({"avx512", micro_avx512, micro_avx512_pair});
        }
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
            k.push_back({"avx2", micro_avx2, two_strips<micro_avx2>});
        }
#endif
#if defined(ENS_KERNEL_NEON)
        k.push_back({"neon", micro_neon, two_strips<micro_neon>});
#endif
        k.push_back({"portable", micro_portable, two_strips<micro_portable>});
        return k;
    }();
    return kernels;
}

const Kernel& dispatch() { return host_kernels().front(); }

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

/// The cache-blocked loop nest over one micro-kernel; operands checked
/// by the caller.
void run_gemm(const Kernel& kern, const float* ENS_RESTRICT apack,
              const float* ENS_RESTRICT bpack, std::int64_t m, std::int64_t n, std::int64_t k,
              float* c, std::int64_t ldc, float alpha, float beta, bool parallel) {
    const std::int64_t strips = ceil_div(m, kMR);
    const std::int64_t pairs = ceil_div(strips, 2);
    const std::int64_t jstrips = ceil_div(n, kNR);
    const std::int64_t strips_per_mc = kMC / kMR;
    static_assert(kMC % (2 * kMR) == 0, "an m block holds whole strip pairs");

    // One task owns the C tiles of strip pairs [lo, hi) outright and walks
    // the k slabs in a fixed serial order, so the result is bit-identical
    // for every chunking parallel_for picks (and for the serial path).
    // Tasks and m blocks both start on an even strip, so every strip but a
    // last odd one runs paired whatever the chunking.
    const auto run_pairs = [&](std::size_t lo_p, std::size_t hi_p) {
        const std::int64_t lo = 2 * static_cast<std::int64_t>(lo_p);
        const std::int64_t hi = std::min(strips, 2 * static_cast<std::int64_t>(hi_p));
        alignas(kPanelAlignment) float acc[2 * kMR * kNR];
        for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
            const std::int64_t kc = std::min(kKC, k - k0);
            const float* aslab = apack + strips * kMR * k0;
            const float* bslab = bpack + jstrips * kNR * k0;
            const bool first_slab = (k0 == 0);
            for (std::int64_t ic = lo; ic < hi; ic += strips_per_mc) {
                const std::int64_t ic_end = std::min(hi, ic + strips_per_mc);
                for (std::int64_t js = 0; js < jstrips; ++js) {
                    const float* bpanel = bslab + js * kNR * kc;
                    const std::int64_t nr = std::min(kNR, n - js * kNR);
                    for (std::int64_t is = ic; is < ic_end; is += 2) {
                        const float* ap = aslab + is * kMR * kc;
                        if (is + 1 < ic_end) {
                            kern.pair(kc, ap, bpanel, acc);
                        } else {
                            kern.one(kc, ap, bpanel, acc);
                        }
                        write_tile(c + is * kMR * ldc + js * kNR, ldc, acc,
                                   std::min(2 * kMR, m - is * kMR), nr, alpha, beta, first_slab);
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

void check_operands(const PackedMatrix& a, const PackedMatrix& b, std::int64_t ldc) {
    ENS_REQUIRE(a.defined() && b.defined(), "gemm_packed: undefined operand pack");
    ENS_REQUIRE(a.is_a() && !b.is_a(), "gemm_packed: operands packed for the wrong side");
    ENS_REQUIRE(a.cols() == b.rows(), "gemm_packed: inner dimension mismatch");
    ENS_REQUIRE(ldc >= b.cols(), "gemm_packed: ldc too small");
}

}  // namespace

void gemm_packed(const PackedMatrix& a, const PackedMatrix& b, float* c, std::int64_t ldc,
                 float alpha, float beta, bool parallel) {
    check_operands(a, b, ldc);
    run_gemm(dispatch(), a.data_.get(), b.data_.get(), a.rows(), b.cols(), a.cols(), c, ldc,
             alpha, beta, parallel);
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
    check_operands(a, b, ldc);
    const std::vector<Kernel>& kernels = host_kernels();
    const auto kern = std::find_if(kernels.begin(), kernels.end(), [&](const Kernel& kn) {
        return std::strcmp(kn.name, isa) == 0;
    });
    ENS_REQUIRE(kern != kernels.end(),
                std::string("gemm_packed_isa: this host has no '") + isa + "' micro-kernel");
    run_gemm(*kern, a.data_.get(), b.data_.get(), a.rows(), b.cols(), a.cols(), c, ldc, alpha,
             beta, parallel);
}

}  // namespace detail

}  // namespace ens::kernel
