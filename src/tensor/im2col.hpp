#pragma once
// im2col / col2im lowering for 2-d convolution on NCHW tensors.
//
// For one sample, im2col builds a [C*kh*kw, Hout*Wout] patch matrix so
// convolution becomes a single GEMM with the [Cout, C*kh*kw] weight matrix;
// col2im scatters gradients back. Padding is zero-padding; dilation is not
// needed by any network in this repository.
//
// Contracts with the GEMM kernel (src/tensor/gemm_kernel.hpp): the `col`
// matrix is produced fully contiguous and row-major, exactly the B-operand
// layout gemm/gemm_serial expect — the kernel's packing stage handles
// alignment, so `col` needs none. `src` and `col` must not alias (both
// functions are annotated ENS_RESTRICT and write/read assuming disjoint
// buffers). Conv2d's forward never builds `col`: kernel::conv_gemm reads it
// in place from the image, or has pack_conv_a_into/pack_conv_b_into write
// the packed panels of im2col's output straight from the image,
// byte-identical to im2col + pack_*_into.
// im2col/col2im remain the lowering of Conv2d::backward (per image, inside
// its batch parallel_for) and the reference the direct packers are tested
// and benchmarked against.

#include <cstdint>

#include "tensor/tensor.hpp"

namespace ens {

struct ConvGeometry {
    std::int64_t in_channels = 0;
    std::int64_t in_h = 0;
    std::int64_t in_w = 0;
    std::int64_t kernel_h = 0;
    std::int64_t kernel_w = 0;
    std::int64_t stride = 1;
    std::int64_t padding = 0;

    std::int64_t out_h() const { return (in_h + 2 * padding - kernel_h) / stride + 1; }
    std::int64_t out_w() const { return (in_w + 2 * padding - kernel_w) / stride + 1; }
    std::int64_t patch_size() const { return in_channels * kernel_h * kernel_w; }
    std::int64_t out_positions() const { return out_h() * out_w(); }
};

/// Gathers patches from one image plane set `src` (layout [C, H, W],
/// contiguous) into `col` (layout [patch_size, out_positions], contiguous).
void im2col(const float* src, const ConvGeometry& geom, float* col);

/// Accumulates (+=) columns back into the image gradient `dst`
/// (layout [C, H, W]); caller zero-fills dst first.
void col2im(const float* col, const ConvGeometry& geom, float* dst);

}  // namespace ens
