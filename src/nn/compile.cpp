#include "nn/compile.hpp"

#include <cmath>
#include <functional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "nn/noise.hpp"
#include "nn/resblock.hpp"
#include "nn/sequential.hpp"

namespace ens::nn {

namespace {

// Rewritten layers are constructed through the normal ctors (which demand
// an Rng) and immediately overwritten via assign_parameters — the init is
// throwaway, like arch.cpp's rebuild seed.
constexpr std::uint64_t kCompileSeed = 0x434F4D50494C45ULL;  // "COMPILE"

// ------------------------------------------------------------- rewrites

/// Conv2d -> BatchNorm2d collapsed into one biased Conv2d using the BN's
/// RUNNING statistics (the eval-mode affine): per output channel,
/// scale = gamma/sqrt(running_var + eps), W' = W * scale,
/// b' = beta - scale * running_mean + scale * (conv bias or 0).
std::unique_ptr<Conv2d> fold_conv_bn(const Conv2d& conv, const BatchNorm2d& bn) {
    Rng rng(kCompileSeed);
    auto folded = std::make_unique<Conv2d>(conv.in_channels(), conv.out_channels(),
                                           conv.kernel(), conv.stride(), conv.padding(), rng,
                                           /*with_bias=*/true);
    const std::int64_t out_ch = conv.out_channels();
    const std::int64_t patch = conv.weight().value.dim(1);
    Tensor weight = conv.weight().value.clone();
    Tensor bias = Tensor::zeros(Shape{out_ch});
    float* w = weight.data();
    float* b_out = bias.data();
    const float* gamma = bn.gamma().value.data();
    const float* beta = bn.beta().value.data();
    const float* rmean = bn.running_mean().data();
    const float* rvar = bn.running_var().data();
    const float* conv_bias = conv.has_bias() ? conv.bias().value.data() : nullptr;
    for (std::int64_t c = 0; c < out_ch; ++c) {
        const float istd = 1.0f / std::sqrt(rvar[c] + bn.eps());
        const float scale = gamma[c] * istd;
        const float shift = beta[c] - scale * rmean[c];
        for (std::int64_t i = 0; i < patch; ++i) {
            w[c * patch + i] *= scale;
        }
        b_out[c] = shift + (conv_bias != nullptr ? scale * conv_bias[c] : 0.0f);
    }
    folded->assign_parameters(weight, &bias);
    folded->set_training(false);
    return folded;
}

/// A Linear with the same weights but a replacement bias (synthesizing one
/// when the source layer was bias-free). Keeps any fused epilogue.
std::unique_ptr<Linear> rebias_linear(const Linear& linear, const Tensor& new_bias) {
    Rng rng(kCompileSeed);
    auto out = std::make_unique<Linear>(linear.in_features(), linear.out_features(), rng,
                                        /*with_bias=*/true);
    out->assign_parameters(linear.weight().value, &new_bias);
    out->set_epilogue(linear.epilogue(), linear.epilogue_slope());
    out->set_training(false);
    return out;
}

Tensor linear_bias_or_zero(const Linear& linear) {
    return linear.has_bias() ? linear.bias().value.clone()
                             : Tensor::zeros(Shape{linear.out_features()});
}

/// BasicBlock -> CompiledResidual: both convs and the optional projection
/// fold their BNs; conv1 gains the inner ReLU as an epilogue.
std::unique_ptr<CompiledResidual> compile_residual(const BasicBlock& block) {
    auto conv1 = fold_conv_bn(block.conv1(), block.bn1());
    conv1->set_epilogue(Epilogue::relu);
    auto conv2 = fold_conv_bn(block.conv2(), block.bn2());
    std::unique_ptr<Conv2d> proj;
    if (block.projection_conv() != nullptr) {
        proj = fold_conv_bn(*block.projection_conv(), *block.projection_bn());
    }
    return std::make_unique<CompiledResidual>(std::move(conv1), std::move(conv2),
                                              std::move(proj));
}

/// Legal bake target: a non-trainable rank-1 mask. Trainable masks are
/// Parameters a caller may keep training/inspecting; higher-rank masks
/// belong to conv feature maps, where no adjacent op is a plain GEMM.
bool bakeable_mask(const FixedNoise& noise) {
    return !noise.trainable() && noise.mask().rank() == 1;
}

// ------------------------------------------------------------ pass body
// Each pass is a peephole over one Sequential's child vector; the driver
// below recurses into nested Sequentials first (bottom-up), so patterns
// spanning a child Sequential's boundary are intentionally out of scope.

std::size_t fold_batchnorm_children(std::vector<LayerPtr>& children) {
    std::size_t rewrites = 0;
    std::vector<LayerPtr> out;
    out.reserve(children.size());
    for (std::size_t i = 0; i < children.size(); ++i) {
        if (const auto* block = dynamic_cast<const BasicBlock*>(children[i].get())) {
            out.push_back(compile_residual(*block));
            ++rewrites;
            continue;
        }
        auto* conv = dynamic_cast<Conv2d*>(children[i].get());
        if (conv != nullptr && conv->epilogue() == Epilogue::none &&
            i + 1 < children.size()) {
            const auto* bn = dynamic_cast<const BatchNorm2d*>(children[i + 1].get());
            if (bn != nullptr && bn->channels() == conv->out_channels()) {
                out.push_back(fold_conv_bn(*conv, *bn));
                ++i;  // consume the BatchNorm2d
                ++rewrites;
                continue;
            }
        }
        out.push_back(std::move(children[i]));
    }
    children = std::move(out);
    return rewrites;
}

std::size_t bake_noise_children(std::vector<LayerPtr>& children) {
    std::size_t rewrites = 0;
    std::vector<LayerPtr> out;
    out.reserve(children.size());
    for (std::size_t i = 0; i < children.size(); ++i) {
        Layer* next = i + 1 < children.size() ? children[i + 1].get() : nullptr;

        // [FixedNoise, Linear]: y = W(x + m) + b = Wx + (b + W m). Legal
        // even with a fused epilogue (the epilogue applies after the sum).
        if (const auto* noise = dynamic_cast<const FixedNoise*>(children[i].get())) {
            const auto* linear = dynamic_cast<const Linear*>(next);
            if (linear != nullptr && bakeable_mask(*noise) &&
                noise->mask().numel() == linear->in_features()) {
                Tensor bias = linear_bias_or_zero(*linear);
                const float* w = linear->weight().value.data();
                const float* m = noise->mask().data();
                float* b = bias.data();
                const std::int64_t in = linear->in_features();
                for (std::int64_t o = 0; o < linear->out_features(); ++o) {
                    float acc = 0.0f;
                    for (std::int64_t k = 0; k < in; ++k) {
                        acc += w[o * in + k] * m[k];
                    }
                    b[o] += acc;
                }
                out.push_back(rebias_linear(*linear, bias));
                ++i;  // consume the Linear (noise layer is dropped)
                ++rewrites;
                continue;
            }
        }

        // [Linear, FixedNoise]: y = (Wx + b) + m = Wx + (b + m) — only
        // while the Linear has no fused epilogue (relu(x) + m != relu(x + m)).
        if (const auto* linear = dynamic_cast<const Linear*>(children[i].get())) {
            const auto* noise = dynamic_cast<const FixedNoise*>(next);
            if (noise != nullptr && linear->epilogue() == Epilogue::none &&
                bakeable_mask(*noise) && noise->mask().numel() == linear->out_features()) {
                Tensor bias = linear_bias_or_zero(*linear);
                bias.add_(noise->mask());
                out.push_back(rebias_linear(*linear, bias));
                ++i;  // consume the FixedNoise
                ++rewrites;
                continue;
            }
        }

        out.push_back(std::move(children[i]));
    }
    children = std::move(out);
    return rewrites;
}

std::size_t fuse_activation_children(std::vector<LayerPtr>& children) {
    std::size_t rewrites = 0;
    std::vector<LayerPtr> out;
    out.reserve(children.size());
    for (std::size_t i = 0; i < children.size(); ++i) {
        Layer* next = i + 1 < children.size() ? children[i + 1].get() : nullptr;
        Epilogue epilogue = Epilogue::none;
        float slope = 0.0f;
        if (dynamic_cast<const ReLU*>(next) != nullptr) {
            epilogue = Epilogue::relu;
        } else if (const auto* leaky = dynamic_cast<const LeakyReLU*>(next)) {
            epilogue = Epilogue::leaky_relu;
            slope = leaky->slope();
        }
        bool fused = false;
        if (epilogue != Epilogue::none) {
            if (auto* conv = dynamic_cast<Conv2d*>(children[i].get());
                conv != nullptr && conv->epilogue() == Epilogue::none) {
                conv->set_epilogue(epilogue, slope);
                fused = true;
            } else if (auto* linear = dynamic_cast<Linear*>(children[i].get());
                       linear != nullptr && linear->epilogue() == Epilogue::none) {
                linear->set_epilogue(epilogue, slope);
                fused = true;
            }
        }
        out.push_back(std::move(children[i]));
        if (fused) {
            ++i;  // drop the standalone activation layer
            ++rewrites;
        }
    }
    children = std::move(out);
    return rewrites;
}

// ---------------------------------------------------------- pass driver

using Peephole = std::size_t (*)(std::vector<LayerPtr>&);

/// Applies `fn` to every Sequential child list, bottom-up. A
/// non-Sequential root still gets one single-element window, so a bare
/// BasicBlock root compiles too.
std::size_t run_peephole(LayerPtr& node, Peephole fn) {
    std::size_t rewrites = 0;
    if (auto* seq = dynamic_cast<Sequential*>(node.get())) {
        std::vector<LayerPtr> children = seq->release_slice(0, seq->size());
        for (LayerPtr& child : children) {
            if (dynamic_cast<Sequential*>(child.get()) != nullptr) {
                rewrites += run_peephole(child, fn);
            }
        }
        rewrites += fn(children);
        for (LayerPtr& child : children) {
            seq->push_back(std::move(child));
        }
        return rewrites;
    }
    std::vector<LayerPtr> window;
    window.push_back(std::move(node));
    rewrites += fn(window);
    ENS_CHECK(window.size() == 1, "graph compiler: root rewrite changed arity");
    node = std::move(window[0]);
    return rewrites;
}

}  // namespace

// -------------------------------------------------------- CompileReport

bool CompileReport::changed() const {
    for (const PassStats& stats : passes) {
        if (stats.rewrites > 0) {
            return true;
        }
    }
    return false;
}

std::string CompileReport::to_string() const {
    std::ostringstream oss;
    oss << "compile[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        oss << (i > 0 ? ", " : "") << passes[i].pass << "=" << passes[i].rewrites;
    }
    oss << "]";
    return oss.str();
}

// ------------------------------------------------- compile_for_inference

LayerPtr compile_for_inference(LayerPtr root, CompileReport* report) {
    ENS_REQUIRE(root != nullptr, "compile_for_inference: null graph");
    CompileReport local;

    struct Pass {
        const char* name;
        Peephole fn;
    };
    // Order matters: folding first exposes bare Conv2d outputs, baking
    // runs before fusion so a [Linear, FixedNoise, ReLU] chain can bake
    // THEN fuse (an already-fused epilogue would make the bake illegal).
    const Pass pipeline[] = {
        {"fold-batchnorm", &fold_batchnorm_children},
        {"bake-noise", &bake_noise_children},
        {"fuse-activations", &fuse_activation_children},
    };
    for (const Pass& pass : pipeline) {
        local.passes.push_back({pass.name, run_peephole(root, pass.fn)});
    }
    root->prepare_inference();
    local.passes.push_back({"repack", 0});
    if (report != nullptr) {
        *report = std::move(local);
    }
    return root;
}

// ----------------------------------------------------- CompiledResidual

CompiledResidual::CompiledResidual(std::unique_ptr<Conv2d> conv1, std::unique_ptr<Conv2d> conv2,
                                   std::unique_ptr<Conv2d> projection)
    : conv1_(std::move(conv1)), conv2_(std::move(conv2)), proj_(std::move(projection)) {
    ENS_REQUIRE(conv1_ != nullptr && conv2_ != nullptr, "CompiledResidual: null conv");
    training_ = false;
}

Tensor CompiledResidual::forward(const Tensor& input) {
    Tensor main = conv1_->forward(input);
    main = conv2_->forward(main);
    if (proj_ != nullptr) {
        main.add_(proj_->forward(input));
    } else {
        main.add_(input);
    }
    apply_epilogue(Epilogue::relu, 0.0f, main.data(), main.numel());
    return main;
}

Tensor CompiledResidual::backward(const Tensor&) {
    ENS_FAIL("CompiledResidual::backward: compiled residual blocks are inference-only");
}

std::vector<Parameter*> CompiledResidual::parameters() {
    std::vector<Parameter*> out;
    for (Conv2d* conv : {conv1_.get(), conv2_.get(), proj_.get()}) {
        if (conv != nullptr) {
            const auto p = conv->parameters();
            out.insert(out.end(), p.begin(), p.end());
        }
    }
    return out;
}

std::string CompiledResidual::name() const {
    return "CompiledResidual(" + std::to_string(conv1_->in_channels()) + "->" +
           std::to_string(conv1_->out_channels()) + ", s" + std::to_string(conv1_->stride()) +
           (proj_ != nullptr ? ", proj" : "") + ")";
}

void CompiledResidual::set_training(bool training) {
    ENS_REQUIRE(!training,
                "CompiledResidual: compiled residual blocks are inference-only and cannot "
                "re-enter training mode");
    Layer::set_training(false);
    conv1_->set_training(false);
    conv2_->set_training(false);
    if (proj_ != nullptr) {
        proj_->set_training(false);
    }
}

void CompiledResidual::on_parameters_changed() {
    conv1_->on_parameters_changed();
    conv2_->on_parameters_changed();
    if (proj_ != nullptr) {
        proj_->on_parameters_changed();
    }
}

void CompiledResidual::prepare_inference() {
    Layer::set_training(false);
    conv1_->prepare_inference();
    conv2_->prepare_inference();
    if (proj_ != nullptr) {
        proj_->prepare_inference();
    }
}

}  // namespace ens::nn
