#pragma once
// 2-d convolution (NCHW) as a GEMM per image, batch-parallel: forward runs
// each image through kernel::conv_gemm against a packed weight, whose
// micro-kernel reads the activations straight from the zero-padded image
// where the ISA and geometry allow and packs them into GEMM panels
// otherwise (kernel::pack_conv_*_into); backward lowers through
// im2col/col2im.

#include "nn/layer.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/im2col.hpp"

namespace ens::nn {

/// Activation fused into a Conv2d/Linear output loop by the graph compiler
/// (nn/compile.hpp). Fusion is bit-exact: the fused loop applies the same
/// scalar max(0,x) / leaky expression a separate ReLU/LeakyReLU layer
/// would, just without materializing the intermediate tensor. A layer with
/// an epilogue is inference-only (backward refuses).
enum class Epilogue : std::uint8_t { none = 0, relu = 1, leaky_relu = 2 };

/// Applies `epilogue` in place over `n` contiguous floats.
void apply_epilogue(Epilogue epilogue, float slope, float* data, std::int64_t n);

/// "relu" / "leaky_relu(0.2)" suffix for compiled-layer names.
std::string epilogue_suffix(Epilogue epilogue, float slope);

class Conv2d final : public Layer {
public:
    /// Square kernels only (all nets in this repo use 1x1/3x3/7x7).
    /// He-normal init with fan_in = in_channels * k * k. ResNet convs are
    /// bias-free (BatchNorm follows); the attack decoder uses biased convs.
    Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
           std::int64_t stride, std::int64_t padding, Rng& rng, bool with_bias = false);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Parameter*> parameters() override;
    std::string name() const override;

    /// Eval-mode forwards run the GEMM against a per-instance packed copy
    /// of the weight (packed lazily on first eval forward or eagerly by
    /// prepare_inference). Training mode, checkpoint loads and
    /// copy_parameters drop the pack so it can never go stale.
    void set_training(bool training) override;
    void on_parameters_changed() override;
    void prepare_inference() override;
    bool weights_packed() const { return packed_weight_.defined(); }

    std::int64_t in_channels() const { return in_channels_; }
    std::int64_t out_channels() const { return out_channels_; }
    std::int64_t kernel() const { return kernel_; }
    std::int64_t stride() const { return stride_; }
    std::int64_t padding() const { return padding_; }
    bool has_bias() const { return with_bias_; }

    /// Weight stored as [out_channels, in_channels * k * k] for the GEMM.
    Parameter& weight() { return weight_; }
    const Parameter& weight() const { return weight_; }
    Parameter& bias() { return bias_; }
    const Parameter& bias() const { return bias_; }

    /// Overwrites weight (and bias, when present) values in one shot,
    /// shape-checked, and invalidates the packed-weight cache. Compiler
    /// passes MUST rewrite parameters through this (not via weight().value
    /// writes) — a direct tensor write would leave a stale pack serving
    /// the old weights.
    void assign_parameters(const Tensor& weight, const Tensor* bias = nullptr);

    /// Fuses an activation into the output loop (graph compiler only).
    /// The layer becomes inference-only: backward() refuses.
    void set_epilogue(Epilogue epilogue, float slope = 0.0f);
    Epilogue epilogue() const { return epilogue_; }
    float epilogue_slope() const { return epilogue_slope_; }

private:
    ConvGeometry geometry_for(const Tensor& input) const;
    /// Packs the weight into `dst` as W (the A operand of W · col) or,
    /// when `as_b`, as W^T (the B operand of col^T · W^T).
    void pack_weight(kernel::PackedMatrix& dst, bool as_b) const;

    std::int64_t in_channels_;
    std::int64_t out_channels_;
    std::int64_t kernel_;
    std::int64_t stride_;
    std::int64_t padding_;
    bool with_bias_;
    Epilogue epilogue_ = Epilogue::none;
    float epilogue_slope_ = 0.0f;
    Parameter weight_;
    Parameter bias_;
    Tensor cached_input_;
    // Weight repacked for the blocked kernel, in the orientation the last
    // eval forward's geometry needed: [out_channels, patch] as the A
    // operand of W · col, or, below kernel::kNR output positions, W^T as
    // the B operand of col^T · W^T. One pack per layer, repacked in place
    // when the geometry flips. Per-instance, so hot-swapped deployment
    // generations can never alias another generation's pack.
    kernel::PackedMatrix packed_weight_;
};

}  // namespace ens::nn
