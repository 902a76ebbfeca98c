#pragma once
// Span recording for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around calls into the
// library's public API: TimedLayer decorates an nn::Layer (a client head or
// tail, a hosted body, one layer of a body) and records one span per
// forward. Spans stay in memory and are written once, when the process
// ends. An untraced run constructs none of this.
//
// Clock: steady_clock, which on Linux is CLOCK_MONOTONIC and therefore
// comparable across the benchmark and the host processes it launches.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/layer.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< enclosing span on the same thread; 0 = none
    std::uint32_t name = 0;    ///< index into SpanLog::names()
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Thread-safe, append-only, in-memory span store.
class SpanLog {
public:
    /// Registers a span name; call before recording starts.
    std::uint32_t intern(const std::string& name);
    const std::vector<std::string>& names() const { return names_; }

    std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
    void record(const Span& span);
    std::vector<Span> snapshot() const;

    /// Writes `header` as the first line, then one "name id parent start_ns
    /// end_ns" line per span.
    void write(const std::string& path, const std::string& header) const;

private:
    std::vector<std::string> names_;
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Reads a file written by SpanLog::write: returns the header line and
/// fills `names` (by index) and `spans`.
std::string read_span_file(const std::string& path, std::vector<std::string>& names,
                           std::vector<Span>& spans);

/// Layer decorator: forwards everything to the wrapped layer and records
/// one span per forward(). Nested TimedLayers on one thread record their
/// enclosing span as parent. With `index_outputs`, each span is also kept
/// under its output tensor's storage address until take_span_for() claims
/// it — how the benchmark pairs a tail forward, run on a pipeline demux
/// thread, with the request whose logits it produced.
class TimedLayer final : public ens::nn::Layer {
public:
    TimedLayer(ens::nn::LayerPtr inner, SpanLog& log, std::uint32_t name,
               bool index_outputs = false);

    ens::Tensor forward(const ens::Tensor& input) override;
    ens::Tensor backward(const ens::Tensor& grad_output) override {
        return inner_->backward(grad_output);
    }
    std::vector<ens::nn::Parameter*> parameters() override { return inner_->parameters(); }
    std::vector<NamedBuffer> buffers() override { return inner_->buffers(); }
    std::string name() const override { return inner_->name(); }
    void set_training(bool training) override {
        Layer::set_training(training);
        inner_->set_training(training);
    }
    void on_parameters_changed() override { inner_->on_parameters_changed(); }
    void prepare_inference() override {
        Layer::prepare_inference();
        inner_->prepare_inference();
    }

    /// The most recent span recorded by this layer. Meaningful only when
    /// one thread drives the layer (a client head inside submit()).
    Span last_span() const { return last_; }

    /// Removes and returns the span whose forward produced `output`
    /// (index_outputs only); false when none is indexed.
    bool take_span_for(const ens::Tensor& output, Span& span);

private:
    ens::nn::LayerPtr inner_;
    SpanLog& log_;
    std::uint32_t name_;
    bool index_outputs_;
    Span last_;
    std::mutex index_mutex_;
    std::unordered_map<const float*, Span> by_output_;
};

}  // namespace perfbench
