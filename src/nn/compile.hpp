#pragma once
// Graph compiler for inference-only deployments.
//
// PR 5's nn::ArchSpec made network structure a serializable recipe; this
// turns the built graph into a compilation surface. compile_for_inference
// runs a small pass pipeline (mirroring the pass-manager shape of
// npu_compiler's graph_transformer) over a live layer tree whose
// checkpointed state is already loaded, rewriting it for eval-only
// serving:
//
//   fold-batchnorm    Conv2d -> BatchNorm2d pairs collapse into one Conv2d
//                     with scaled weights and a synthesized bias
//                     (W' = W * gamma/sqrt(rvar+eps), b' = beta - scale *
//                     rmean + scale * b). BasicBlocks become
//                     CompiledResidual (both convs + the optional 1x1
//                     projection folded, ReLUs fused). Tolerance-class:
//                     float re-association moves the last bits.
//   bake-noise        a non-trainable rank-1 FixedNoise mask adjacent to a
//                     Linear inside a Sequential folds into the Linear's
//                     bias ([FixedNoise, Linear] -> b' = b + W m;
//                     [Linear, FixedNoise] -> b' = b + m, only while no
//                     epilogue is fused — relu(x) + m != relu(x + m)).
//                     Trainable masks, non-rank-1 masks and masks not
//                     adjacent to a Linear are left in place (identity). The
//                     split-point noise of a served deployment
//                     (ClientArtifacts.noise) is NEVER passed through the
//                     compiler — it is the wire-observable defense itself.
//   fuse-activations  ReLU / LeakyReLU directly after a Conv2d/Linear
//                     becomes that layer's output-loop epilogue. Bit-exact
//                     (same scalar expression, no intermediate tensor).
//   repack            prepare_inference() over the rewritten tree, so the
//                     GEMM packed-weight caches reflect the REWRITTEN
//                     weights (assign_parameters invalidated the old
//                     packs).
//
// Compiled graphs are runtime artifacts: backward() refuses on any layer
// with a fused epilogue and on CompiledResidual, and describe_layer
// refuses to export them as specs — a bundle always stores the
// uncompiled graph, and the `optimize` flag recompiles at every boot.
//
// The serving surface (ServeConfig::optimize, BodyHost::from_bundle,
// DeploymentManager, serve_daemon --optimize) compiles server BODIES only.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/layer.hpp"

namespace ens::nn {

/// What each pass did, for logs and tests.
struct CompileReport {
    struct PassStats {
        std::string pass;
        std::size_t rewrites = 0;
    };
    std::vector<PassStats> passes;

    /// True when any pass rewrote anything (identity degradation check).
    bool changed() const;
    std::string to_string() const;
};

/// Runs the four passes over `root` (consuming it) and returns the
/// compiled graph. Rewrites happen inside Sequential child lists (nested
/// Sequentials recursed) and on BasicBlock nodes; a graph with no foldable
/// pattern comes back functionally identical (bit-exact outputs). The
/// input graph must already hold its final (checkpoint-loaded) state —
/// folding bakes the CURRENT running statistics and masks in.
LayerPtr compile_for_inference(LayerPtr root, CompileReport* report = nullptr);

/// A BasicBlock after BN folding: conv1 (folded, fused ReLU) -> conv2
/// (folded) -> add shortcut (optionally a folded 1x1 projection) -> ReLU.
/// Inference-only: backward() and set_training(true) refuse.
class CompiledResidual final : public Layer {
public:
    CompiledResidual(std::unique_ptr<Conv2d> conv1, std::unique_ptr<Conv2d> conv2,
                     std::unique_ptr<Conv2d> projection);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Parameter*> parameters() override;
    std::string name() const override;
    void set_training(bool training) override;
    void on_parameters_changed() override;
    void prepare_inference() override;

    bool has_projection() const { return proj_ != nullptr; }
    const Conv2d& conv1() const { return *conv1_; }
    const Conv2d& conv2() const { return *conv2_; }
    const Conv2d* projection_conv() const { return proj_.get(); }

private:
    std::unique_ptr<Conv2d> conv1_;
    std::unique_ptr<Conv2d> conv2_;
    std::unique_ptr<Conv2d> proj_;
};

}  // namespace ens::nn
