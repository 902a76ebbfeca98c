#pragma once
// Blocked, register-tiled GEMM micro-kernel with packed operand panels.
//
// This is the compute core every request bottoms out in: Conv2d lowers to
// GEMM via im2col (W · col, or col^T · W^T below kNR output positions so
// the channels fill the register tile), Linear IS a GEMM, and the serve
// fan-out just schedules many of them. The structure is the classic
// three-level blocking of production BLAS (BLIS/oneDNN style), sized for
// the L1/L2 of commodity serving hardware:
//
//   - micro-kernel: a kMR x kNR register tile updated along kc with FMA —
//     runtime-dispatched between an AVX2+FMA path, a NEON path and a
//     portable compiler-vectorized fallback (kernel_isa() names the one in
//     use). All paths consume the same packed-panel layout, so which ISA
//     runs never changes operand memory traffic.
//   - packing: operands are repacked into contiguous, 64-byte-aligned
//     panels (A: kMR-row strips, column-major within the strip; B: kNR-
//     column strips, row-major within the strip) so the micro-kernel's
//     inner loop reads both operands at stride 1 regardless of the caller's
//     transpose flags. Ragged edges are zero-padded to the full tile —
//     edge handling costs dead lanes, never a scalar loop.
//   - cache blocking: the k dimension is cut into kKC-deep slabs (B panel
//     strip of kKC x kNR stays L1-resident across the i sweep) and the m
//     dimension into kMC-row blocks (an MC x KC slab of packed A stays
//     L2-resident across the j sweep).
//
// PackedMatrix makes the packing REUSABLE: pack_a/pack_b once (e.g. a
// layer's weights at bundle load), then run gemm_packed_* per request and
// skip the pack pass entirely. nn::Conv2d / nn::Linear cache a
// PackedMatrix of their weights keyed to eval mode — see
// Layer::prepare_inference().
//
// Determinism contract: for fixed (m, n, k, alpha, beta) the result is
// bit-identical across ALL of these axes — packed vs unpacked operands,
// parallel vs serial execution, and any thread-count/chunking the pool
// picks. Tiles are computed independently (each C tile is owned by exactly
// one task, k-slabs accumulate in a fixed serial order), which is what
// lets gemm()/gemm_serial() and the packed layer paths feed the repo's
// bit-parity serving tests interchangeably. Results are NOT bit-identical
// to the naive reference kernel (ens::gemm_naive) — blocking and FMA
// change summation order/rounding — so cross-kernel tests use the bounded
// error documented in tests/tensor/kernel_test.cpp.
//
// Threading composes with the batch fan-out instead of fighting it: the
// parallel entry points tile over i-strips as ens::parallel_for work items
// on the ONE global pool. Called from a pool worker (a Conv2d per-image
// chunk), parallel_for runs the range inline on that worker — so
// multi-image batches parallelize across images while a lone
// latency-sensitive GEMM still fans its tiles out, and the pool is never
// oversubscribed.

#include <cstddef>
#include <cstdint>
#include <memory>

#if defined(__GNUC__) || defined(__clang__)
#define ENS_RESTRICT __restrict__
#else
#define ENS_RESTRICT
#endif

namespace ens::kernel {

/// Register tile: kMR rows of C by kNR columns, accumulated over k.
/// 6 x 16 fills the 16 architectural YMM registers of AVX2 (12
/// accumulators + 2 B vectors + broadcast + spare) and maps onto NEON as
/// 6 x 4 q-registers; the portable path unrolls the same shape.
inline constexpr std::int64_t kMR = 6;
inline constexpr std::int64_t kNR = 16;

/// Cache blocking: kKC-deep k slabs (one packed B strip = kKC * kNR * 4 B
/// = 16 KiB, half a typical L1d) and kMC-row m blocks (packed A slab =
/// kMC * kKC * 4 B = 72 KiB, comfortably L2-resident).
inline constexpr std::int64_t kKC = 256;
inline constexpr std::int64_t kMC = 72;  // multiple of kMR

/// Name of the micro-kernel the runtime dispatcher selected for this
/// process: "avx2", "neon" or "portable". Stable for the process lifetime.
const char* kernel_isa();

/// One operand repacked into aligned micro-kernel panels. Opaque storage;
/// geometry refers to the LOGICAL operand (after any transpose): an A pack
/// is rows() = M by cols() = K, a B pack is rows() = K by cols() = N.
///
/// Reuse: pack_*_into() re-packs in place, growing the buffer only when
/// needed — per-thread scratch packs amortize to zero allocations.
/// A PackedMatrix is immutable once packed and safe to read from any
/// number of threads concurrently.
class PackedMatrix {
public:
    PackedMatrix() = default;
    PackedMatrix(PackedMatrix&&) noexcept = default;
    PackedMatrix& operator=(PackedMatrix&&) noexcept = default;
    PackedMatrix(const PackedMatrix&) = delete;
    PackedMatrix& operator=(const PackedMatrix&) = delete;

    bool defined() const { return data_ != nullptr && rows_ > 0; }
    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }
    /// True when this pack holds an A operand (kMR strips), false for B
    /// (kNR strips).
    bool is_a() const { return is_a_; }
    /// Drops the packed panels (returns to !defined()); keeps capacity.
    void clear() { rows_ = cols_ = 0; }
    /// Packed storage footprint in bytes (for gauges/tests).
    std::size_t storage_bytes() const { return capacity_ * sizeof(float); }

private:
    friend void pack_a_into(PackedMatrix&, const float*, std::int64_t, bool, std::int64_t,
                            std::int64_t);
    friend void pack_b_into(PackedMatrix&, const float*, std::int64_t, bool, std::int64_t,
                            std::int64_t);
    friend void gemm_packed(const PackedMatrix&, const PackedMatrix&, float*, std::int64_t, float,
                            float, bool);

    struct FreeDeleter {
        void operator()(float* p) const noexcept;
    };

    void reserve(std::size_t floats);

    std::unique_ptr<float, FreeDeleter> data_;
    std::size_t capacity_ = 0;  // floats
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    bool is_a_ = false;
};

/// Packs op(A) (m x k; trans_a reads A as [k, m] with leading dim lda)
/// into kMR-row panels. lda is A's PHYSICAL row stride.
void pack_a_into(PackedMatrix& dst, const float* a, std::int64_t lda, bool trans_a,
                 std::int64_t m, std::int64_t k);
PackedMatrix pack_a(const float* a, std::int64_t lda, bool trans_a, std::int64_t m,
                    std::int64_t k);

/// Packs op(B) (k x n; trans_b reads B as [n, k] with leading dim ldb)
/// into kNR-column panels.
void pack_b_into(PackedMatrix& dst, const float* b, std::int64_t ldb, bool trans_b,
                 std::int64_t k, std::int64_t n);
PackedMatrix pack_b(const float* b, std::int64_t ldb, bool trans_b, std::int64_t k,
                    std::int64_t n);

/// C = alpha * op(A) @ op(B) + beta * C over raw row-major buffers (ldc =
/// C's row stride; beta == 0 overwrites, so C may start uninitialized).
/// Packs both operands into per-thread scratch, then runs the blocked
/// driver. `parallel` tiles i-strips over ens::parallel_for (inline when
/// already on a pool worker; small problems stay serial regardless).
void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                  std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb, bool trans_b,
                  float* c, std::int64_t ldc, float alpha, float beta, bool parallel);

/// Same, with one (or both) operands pre-packed — the per-request path for
/// weights packed once at load. The packed operand fixes two of the three
/// dimensions; the free one (n for gemm_packed_a, m for gemm_packed_b) is
/// passed explicitly. Geometry must match (checked).
void gemm_packed_a(const PackedMatrix& a, const float* b, std::int64_t ldb, bool trans_b,
                   std::int64_t n, float* c, std::int64_t ldc, float alpha, float beta,
                   bool parallel);
void gemm_packed_b(const float* a, std::int64_t lda, bool trans_a, std::int64_t m,
                   const PackedMatrix& b, float* c, std::int64_t ldc, float alpha, float beta,
                   bool parallel);
void gemm_packed(const PackedMatrix& a, const PackedMatrix& b, float* c, std::int64_t ldc,
                 float alpha, float beta, bool parallel);

}  // namespace ens::kernel
