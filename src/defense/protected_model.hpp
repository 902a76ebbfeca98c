#pragma once
// A trained, possibly-perturbed collaborative-inference pipeline: the
// common shape of every baseline defense (None / Single / Shredder /
// DR-single / DR-N).
//
// Client: head -> perturb (noise / dropout / nothing) -> [wire]
// Server: one or K bodies
// Client: combiner (passthrough for K=1, 1/K-scaled concat for K>1) -> tail
//
// To deploy a trained ProtectedModel, hand it (by move) to
// serve::InferenceService::from_baseline — every baseline then serves
// through the same session interface as Ensembler.

#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "split/deployed.hpp"

namespace ens::defense {

class ProtectedModel {
public:
    ProtectedModel() = default;

    std::unique_ptr<nn::Sequential> head;
    std::unique_ptr<nn::Layer> perturb;  // nullptr = no perturbation
    std::vector<std::unique_ptr<nn::Sequential>> bodies;
    std::unique_ptr<nn::Sequential> tail;

    /// Client-side wire output, eval mode: perturb(head(x)).
    Tensor transmit(const Tensor& images);

    /// Full eval-mode pipeline.
    Tensor predict(const Tensor& images);

    float evaluate_accuracy(const data::Dataset& test_set, std::size_t batch_size = 64);

    split::DeployedPipeline deployed();

    void set_training(bool training);

    /// All trainable parameters (head + perturb + bodies + tail).
    std::vector<nn::Parameter*> trainable_parameters();

    /// Training-mode forward/backward through the whole pipeline; used by
    /// the baseline trainers.
    Tensor forward(const Tensor& images);
    void backward(const Tensor& grad_logits);

private:
    Tensor combine(std::vector<Tensor> features) const;
    std::vector<Tensor> split_feature_gradient(const Tensor& grad_combined) const;
};

}  // namespace ens::defense
