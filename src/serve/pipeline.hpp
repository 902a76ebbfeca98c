#pragma once
// Client-side request plumbing shared by every serving client: the
// in-flight request record, the client-side finish (secret selector +
// private tail + stats), a FIFO window of futures for callers that keep
// several requests outstanding, and error labeling.
//
// The client itself is serve::ShardRouter (serve/shard_router.hpp): K
// shard hosts, each served by R >= 1 replica links, pipelined by request
// id (protocol v4, serve/protocol.hpp). RemoteSession is its one-shard
// case, and the in-proc ClientSession (serve/service.hpp) holds one, so
// every path finishes through finish_request and applies the selector and
// tail exactly like the CollaborativeSession oracle.

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "serve/stats.hpp"
#include "serve/types.hpp"
#include "split/codec.hpp"
#include "tensor/tensor.hpp"

namespace ens::serve {

/// Re-raises `error` with "label: " prefixed to its message when it is an
/// ens::Error (the code is preserved — callers dispatch on it); other
/// exception types propagate unchanged (client-side bugs, not peer
/// failures).
[[noreturn]] void rethrow_labeled(const std::string& label, const std::exception_ptr& error);

/// rethrow_labeled captured as an exception_ptr (for promise faulting).
std::exception_ptr labeled_exception(const std::string& label, const std::exception_ptr& error);

/// The uplink payload of one request: encoded ONCE into a pooled buffer,
/// shared read-only by every link's write, returned to the pool when the
/// last holder is done with it. Retained on the in-flight request until
/// completion so a replica failure can replay the identical bytes.
using SharedPayload = std::shared_ptr<split::WireBufferPool::Lease>;

/// One in-flight request, shared between the submitter (owns the future)
/// and every link carrying a piece of it.
struct InflightRequest {
    std::uint64_t id = 0;
    std::int64_t images = 0;
    /// Started when the OWNER began the request (before the client head
    /// phase), so total_ms keeps the PR-3 infer() meaning: everything from
    /// submission to logits.
    Stopwatch submitted;
    /// Time submit() spent parked on window backpressure.
    double queue_ms = 0.0;
    /// The encoded uplink bytes, kept until the request settles so a
    /// replica failover can replay them without re-encoding.
    SharedPayload payload;
    /// Decoded feature maps in GLOBAL body order; each link's demux fills
    /// its own disjoint slice, so no locking is needed on the slots.
    std::vector<Tensor> features;
    /// Frames still expected across all links; the demux that takes this
    /// to zero runs finish_request.
    std::atomic<std::size_t> frames_remaining{0};
    /// Shards that still have to finish (deliver or fail) their share;
    /// the one that takes this to zero retires the table entry.
    std::atomic<std::size_t> shards_remaining{0};
    /// Times this request has been moved onto a sibling replica (bounded
    /// by RetryPolicy::max_attempts).
    std::atomic<std::size_t> failovers{0};
    /// Guards the promise against double fulfillment (completion racing a
    /// link failure).
    std::atomic<bool> settled{false};
    std::promise<InferenceResult> promise;
};

/// The shared client-side finish of a completed request — secret selector
/// over the merged global feature maps, private tail, stats — run by
/// ShardRouter (and so by RemoteSession and the in-proc ClientSession).
InferenceResult finish_request(InflightRequest& request, const core::Selector& selector,
                               nn::Layer& tail, SessionStats& stats);

/// FIFO convenience for windowed clients (examples, benches): holds at
/// most `capacity` outstanding futures; push() returns the OLDEST result
/// once the window is full, drain via pop()/empty(). A future that faults
/// throws out of pop() while the rest of the window stays held, so the
/// caller can keep draining.
class FutureWindow {
public:
    explicit FutureWindow(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    /// Adds a future; when that fills the window past capacity, resolves
    /// and returns the oldest outstanding one (nullopt while filling up).
    /// The new future is stored BEFORE the oldest is resolved, so a fault
    /// thrown out of the resolve never drops the one just pushed.
    std::optional<InferenceResult> push(std::future<InferenceResult> future) {
        pending_.push_back(std::move(future));
        if (pending_.size() > capacity_) {
            return pop();
        }
        return std::nullopt;
    }

    /// Resolves the oldest outstanding future (undefined when empty()).
    InferenceResult pop() {
        std::future<InferenceResult> future = std::move(pending_.front());
        pending_.pop_front();
        return future.get();
    }

    bool empty() const { return pending_.empty(); }
    std::size_t size() const { return pending_.size(); }

private:
    std::size_t capacity_;
    std::deque<std::future<InferenceResult>> pending_;
};

}  // namespace ens::serve
