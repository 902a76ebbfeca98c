#include "nn/conv2d.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "tensor/ops.hpp"

namespace ens::nn {

namespace {

/// Per-thread buffers for Conv2d::forward, in the manner of the kernel's
/// per-thread pack scratch: the weight pack a training forward builds and
/// the [positions, C_out] product of the transposed path. The packer and
/// the beta = 0 GEMM write every element they later read, so the buffers
/// need no zero-fill per call; they only grow. A forward chunk holds them
/// until it returns and nothing inside it re-enters Conv2d::forward on the
/// same thread.
kernel::PackedMatrix& tls_weight_pack() {
    thread_local kernel::PackedMatrix pack;
    return pack;
}

std::vector<float>& tls_out_mat() {
    thread_local std::vector<float> buffer;
    return buffer;
}

float* scratch(std::vector<float>& buffer, std::int64_t floats) {
    if (buffer.size() < static_cast<std::size_t>(floats)) {
        buffer.resize(static_cast<std::size_t>(floats));
    }
    return buffer.data();
}

}  // namespace

void apply_epilogue(Epilogue epilogue, float slope, float* data, std::int64_t n) {
    switch (epilogue) {
        case Epilogue::none:
            return;
        case Epilogue::relu:
            for (std::int64_t i = 0; i < n; ++i) {
                data[i] = data[i] > 0.0f ? data[i] : 0.0f;
            }
            return;
        case Epilogue::leaky_relu:
            for (std::int64_t i = 0; i < n; ++i) {
                data[i] = data[i] > 0.0f ? data[i] : slope * data[i];
            }
            return;
    }
}

std::string epilogue_suffix(Epilogue epilogue, float slope) {
    switch (epilogue) {
        case Epilogue::none: return "";
        case Epilogue::relu: return "+relu";
        case Epilogue::leaky_relu: return "+leaky_relu(" + std::to_string(slope) + ")";
    }
    return "";
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, Rng& rng, bool with_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      with_bias_(with_bias) {
    ENS_REQUIRE(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 && padding >= 0,
                "Conv2d: bad geometry");
    const std::int64_t fan_in = in_channels * kernel * kernel;
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    weight_ = Parameter("weight", Tensor::randn(Shape{out_channels, fan_in}, rng, 0.0f, stddev));
    if (with_bias_) {
        bias_ = Parameter("bias", Tensor::zeros(Shape{out_channels}));
    }
}

ConvGeometry Conv2d::geometry_for(const Tensor& input) const {
    ENS_REQUIRE(input.rank() == 4 && input.dim(1) == in_channels_,
                "Conv2d: input shape mismatch, got " + input.shape().to_string());
    ConvGeometry geom;
    geom.in_channels = in_channels_;
    geom.in_h = input.dim(2);
    geom.in_w = input.dim(3);
    geom.kernel_h = kernel_;
    geom.kernel_w = kernel_;
    geom.stride = stride_;
    geom.padding = padding_;
    ENS_REQUIRE(geom.out_h() > 0 && geom.out_w() > 0, "Conv2d: output collapses to zero size");
    return geom;
}

Tensor Conv2d::forward(const Tensor& input) {
    const ConvGeometry geom = geometry_for(input);
    cached_input_ = input;
    const std::int64_t batch = input.dim(0);
    const std::int64_t positions = geom.out_positions();
    Tensor output(Shape{batch, out_channels_, geom.out_h(), geom.out_w()});

    const std::int64_t in_plane = in_channels_ * geom.in_h * geom.in_w;
    const std::int64_t out_plane = out_channels_ * positions;

    // One lowering for both modes: each image is one kernel::conv_gemm
    // against a packed weight, which reads the image in place where the ISA
    // and geometry allow and packs its patches otherwise (no im2col matrix
    // either way). Eval mode reuses a pack cached across every image and
    // request; training packs the weight per forward into per-thread
    // scratch, since the optimizer moves it between forwards.
    //
    // The GEMM orientation follows the geometry. W · col puts the output
    // positions on the kNR side of the register tile, so below kNR
    // positions (the 2x2 stage-4 maps) most of every FMA is padding. There
    // the layer computes out^T[positions, C_out] = col^T · W^T instead,
    // with channels filling the tile and col^T read straight from the
    // image. Each C element is still the same FMA chain over the same kKC
    // slabs, only the operand roles swap, so the result is bit-identical
    // either way. The cutoff is strict, re-measured with the implicit A
    // side (kernel::detail::conv_gemm_isa on each orientation, one image,
    // ENS_THREADS=1, best of 7 x 400 reps, three runs on a 4-vCPU AVX-512
    // VM): at the stage-3 shape (64 -> 64 channels, 4x4, exactly kNR
    // positions) W · col with a packed col runs at 129-141 GFLOP/s against
    // 94-97 transposed on AVX-512, and 79-86 against 75-84 on AVX2; at the
    // stage-4 shape (128 channels, 2x2) the transposed form runs at 113-132
    // against 31-32 on AVX-512, and 70-73 against 19-20 on AVX2.
    const bool transposed = positions < kernel::kNR;
    const kernel::PackedMatrix* weight = &packed_weight_;
    if (training_) {
        weight = &tls_weight_pack();
        pack_weight(tls_weight_pack(), /*as_b=*/transposed);
    } else if (!packed_weight_.defined() || packed_weight_.is_a() == transposed) {
        pack_weight(packed_weight_, /*as_b=*/transposed);
    }

    parallel_for(0, static_cast<std::size_t>(batch), [&](std::size_t lo, std::size_t hi) {
        float* out_mat = transposed ? scratch(tls_out_mat(), out_plane) : nullptr;
        const float* b = with_bias_ ? bias_.value.data() : nullptr;
        for (std::size_t n = lo; n < hi; ++n) {
            const float* image = input.data() + static_cast<std::int64_t>(n) * in_plane;
            float* dst = output.data() + static_cast<std::int64_t>(n) * out_plane;
            if (transposed) {
                kernel::conv_gemm(*weight, image, geom, out_mat, /*parallel=*/false);
                for (std::int64_t c = 0; c < out_channels_; ++c) {
                    for (std::int64_t p = 0; p < positions; ++p) {
                        const float v = out_mat[p * out_channels_ + c];
                        dst[c * positions + p] = b != nullptr ? v + b[c] : v;
                    }
                }
            } else {
                kernel::conv_gemm(*weight, image, geom, dst, /*parallel=*/false);
                if (b != nullptr) {
                    for (std::int64_t c = 0; c < out_channels_; ++c) {
                        for (std::int64_t p = 0; p < positions; ++p) {
                            dst[c * positions + p] += b[c];
                        }
                    }
                }
            }
            apply_epilogue(epilogue_, epilogue_slope_, dst, out_plane);
        }
    });
    return output;
}

void Conv2d::pack_weight(kernel::PackedMatrix& dst, bool as_b) const {
    const std::int64_t patch = weight_.value.dim(1);
    if (as_b) {
        kernel::pack_b_into(dst, weight_.value.data(), patch, /*trans_b=*/true, patch,
                            out_channels_);
    } else {
        kernel::pack_a_into(dst, weight_.value.data(), patch, /*trans_a=*/false, out_channels_,
                            patch);
    }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
    ENS_CHECK(epilogue_ == Epilogue::none,
              "Conv2d::backward: layer has a fused activation epilogue (compiled, "
              "inference-only)");
    ENS_CHECK(cached_input_.defined(), "Conv2d::backward before forward");
    const ConvGeometry geom = geometry_for(cached_input_);
    const std::int64_t batch = cached_input_.dim(0);
    const std::int64_t positions = geom.out_positions();
    ENS_REQUIRE(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                    grad_output.dim(1) == out_channels_ && grad_output.dim(2) == geom.out_h() &&
                    grad_output.dim(3) == geom.out_w(),
                "Conv2d: grad shape mismatch");

    Tensor grad_input(cached_input_.shape());
    const std::int64_t in_plane = in_channels_ * geom.in_h * geom.in_w;
    const std::int64_t out_plane = out_channels_ * positions;
    const bool want_wgrad = weight_.requires_grad;

    // Per-chunk weight-gradient partials, keyed by chunk start so the final
    // reduction below runs in a deterministic order regardless of thread
    // scheduling (float addition is not associative).
    std::mutex accum_mutex;
    std::map<std::size_t, std::pair<Tensor, Tensor>> partials;
    parallel_for(0, static_cast<std::size_t>(batch), [&](std::size_t lo, std::size_t hi) {
        Tensor col(Shape{geom.patch_size(), positions});
        Tensor dcol(Shape{geom.patch_size(), positions});
        Tensor local_wgrad = want_wgrad ? Tensor::zeros(weight_.value.shape()) : Tensor();
        Tensor local_bgrad =
            (want_wgrad && with_bias_) ? Tensor::zeros(Shape{out_channels_}) : Tensor();

        for (std::size_t n = lo; n < hi; ++n) {
            const float* x_n = cached_input_.data() + static_cast<std::int64_t>(n) * in_plane;
            const Tensor dy_mat =
                Tensor::from_vector(Shape{out_channels_, positions},
                                    std::vector<float>(
                                        grad_output.data() + static_cast<std::int64_t>(n) * out_plane,
                                        grad_output.data() +
                                            static_cast<std::int64_t>(n + 1) * out_plane));

            if (want_wgrad) {
                // dW += dY_n @ col_n^T  (recompute col; cheaper than caching
                // the whole batch of patch matrices)
                im2col(x_n, geom, col.data());
                gemm_serial(dy_mat, false, col, true, local_wgrad, 1.0f, 1.0f);
                if (with_bias_) {
                    const float* g = dy_mat.data();
                    float* db = local_bgrad.data();
                    for (std::int64_t c = 0; c < out_channels_; ++c) {
                        for (std::int64_t p = 0; p < positions; ++p) {
                            db[c] += g[c * positions + p];
                        }
                    }
                }
            }

            // dcol = W^T @ dY_n ; scatter back to the input gradient.
            gemm_serial(weight_.value, true, dy_mat, false, dcol);
            col2im(dcol.data(), geom, grad_input.data() + static_cast<std::int64_t>(n) * in_plane);
        }

        if (want_wgrad) {
            const std::lock_guard<std::mutex> lock(accum_mutex);
            partials.emplace(lo, std::make_pair(std::move(local_wgrad), std::move(local_bgrad)));
        }
    });
    for (auto& [lo, grads] : partials) {
        weight_.grad.add_(grads.first);
        if (with_bias_) {
            bias_.grad.add_(grads.second);
        }
    }
    return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
    if (with_bias_) {
        return {&weight_, &bias_};
    }
    return {&weight_};
}

void Conv2d::set_training(bool training) {
    Layer::set_training(training);
    if (training) {
        packed_weight_.clear();
    }
}

void Conv2d::on_parameters_changed() { packed_weight_.clear(); }

void Conv2d::assign_parameters(const Tensor& weight, const Tensor* bias) {
    ENS_REQUIRE(weight.shape() == weight_.value.shape(),
                "Conv2d::assign_parameters: weight shape " + weight.shape().to_string() +
                    " != " + weight_.value.shape().to_string());
    ENS_REQUIRE((bias != nullptr) == with_bias_,
                "Conv2d::assign_parameters: bias presence must match with_bias");
    weight_.value.copy_from(weight);
    if (bias != nullptr) {
        ENS_REQUIRE(bias->shape() == bias_.value.shape(),
                    "Conv2d::assign_parameters: bias shape mismatch");
        bias_.value.copy_from(*bias);
    }
    on_parameters_changed();
}

void Conv2d::set_epilogue(Epilogue epilogue, float slope) {
    epilogue_ = epilogue;
    epilogue_slope_ = slope;
}

void Conv2d::prepare_inference() {
    set_training(false);
    // The input geometry is unknown here. Keep the orientation a forward
    // already chose; before any forward, pack for W · col, and let the
    // first forward of a small-spatial layer repack it once as W^T.
    pack_weight(packed_weight_, /*as_b=*/packed_weight_.defined() && !packed_weight_.is_a());
}

std::string Conv2d::name() const {
    return "Conv2d(" + std::to_string(in_channels_) + "->" + std::to_string(out_channels_) +
           ", k" + std::to_string(kernel_) + " s" + std::to_string(stride_) + " p" +
           std::to_string(padding_) + ")" + epilogue_suffix(epilogue_, epilogue_slope_);
}

}  // namespace ens::nn
