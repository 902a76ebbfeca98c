#include "trace.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Innermost open TimedLayer span on this thread (0 = none).
thread_local std::uint64_t tl_open_span = 0;

}  // namespace

std::uint32_t SpanLog::intern(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) {
            return static_cast<std::uint32_t>(i);
        }
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::record(const Span& span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<Span> SpanLog::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void SpanLog::write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write span file " + path);
    }
    out << header << '\n';
    out << "names";
    for (const std::string& name : names_) {
        out << ' ' << name;
    }
    out << '\n';
    for (const Span& span : snapshot()) {
        out << span.name << ' ' << span.id << ' ' << span.parent << ' ' << span.start_ns << ' '
            << span.end_ns << '\n';
    }
    if (!out) {
        throw std::runtime_error("short write to span file " + path);
    }
}

std::string read_span_file(const std::string& path, std::vector<std::string>& names,
                           std::vector<Span>& spans) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read span file " + path);
    }
    std::string header;
    std::string names_line;
    if (!std::getline(in, header) || !std::getline(in, names_line)) {
        throw std::runtime_error("truncated span file " + path);
    }
    std::istringstream names_in(names_line);
    std::string word;
    names_in >> word;  // "names"
    names.clear();
    while (names_in >> word) {
        names.push_back(word);
    }
    spans.clear();
    Span span;
    while (in >> span.name >> span.id >> span.parent >> span.start_ns >> span.end_ns) {
        if (span.name >= names.size()) {
            throw std::runtime_error("span file " + path + " names an unknown span");
        }
        spans.push_back(span);
    }
    return header;
}

TimedLayer::TimedLayer(ens::nn::LayerPtr inner, SpanLog& log, std::uint32_t name,
                       bool index_outputs)
    : inner_(std::move(inner)), log_(log), name_(name), index_outputs_(index_outputs) {
    training_ = inner_->training();
}

ens::Tensor TimedLayer::forward(const ens::Tensor& input) {
    Span span;
    span.id = log_.next_id();
    span.parent = tl_open_span;
    span.name = name_;
    tl_open_span = span.id;
    span.start_ns = now_ns();
    ens::Tensor output;
    try {
        output = inner_->forward(input);
    } catch (...) {
        tl_open_span = span.parent;
        throw;
    }
    span.end_ns = now_ns();
    tl_open_span = span.parent;
    log_.record(span);
    last_ = span;
    if (index_outputs_) {
        const std::lock_guard<std::mutex> lock(index_mutex_);
        by_output_[output.data()] = span;
    }
    return output;
}

bool TimedLayer::take_span_for(const ens::Tensor& output, Span& span) {
    const std::lock_guard<std::mutex> lock(index_mutex_);
    const auto it = by_output_.find(output.data());
    if (it == by_output_.end()) {
        return false;
    }
    span = it->second;
    by_output_.erase(it);
    return true;
}

}  // namespace perfbench
