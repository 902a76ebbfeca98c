#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

namespace ens::serve {

namespace {

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) {
        return 0.0;
    }
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

void SessionStats::record(double total_ms, double queue_ms, std::int64_t images) {
    const std::lock_guard<std::mutex> lock(mutex_);
    total_ms_.push_back(total_ms);
    queue_ms_sum_ += queue_ms;
    images_ += static_cast<std::uint64_t>(images);
}

void SessionStats::record_failover() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++failovers_;
}

void SessionStats::record_retry() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++retries_;
}

std::uint64_t SessionStats::requests() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_ms_.size();
}

std::uint64_t SessionStats::failovers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failovers_;
}

std::uint64_t SessionStats::retries() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return retries_;
}

std::uint64_t SessionStats::images() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return images_;
}

LatencySummary SessionStats::latency() const {
    std::vector<double> sorted;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        sorted = total_ms_;
    }
    std::sort(sorted.begin(), sorted.end());
    LatencySummary summary;
    summary.count = sorted.size();
    if (sorted.empty()) {
        return summary;
    }
    double sum = 0.0;
    for (const double v : sorted) {
        sum += v;
    }
    summary.mean_ms = sum / static_cast<double>(sorted.size());
    summary.p50_ms = percentile(sorted, 0.50);
    summary.p90_ms = percentile(sorted, 0.90);
    summary.p99_ms = percentile(sorted, 0.99);
    summary.max_ms = sorted.back();
    return summary;
}

double SessionStats::mean_queue_ms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_ms_.empty() ? 0.0
                             : queue_ms_sum_ / static_cast<double>(total_ms_.size());
}

void SessionStats::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    total_ms_.clear();
    queue_ms_sum_ = 0.0;
    images_ = 0;
    failovers_ = 0;
    retries_ = 0;
}

}  // namespace ens::serve
