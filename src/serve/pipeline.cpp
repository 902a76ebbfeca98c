#include "serve/pipeline.hpp"

#include "common/error.hpp"

namespace ens::serve {

// ------------------------------------------------------- error labeling

[[noreturn]] void rethrow_labeled(const std::string& label, const std::exception_ptr& error) {
    try {
        std::rethrow_exception(error);
    } catch (const Error& e) {
        // Error's constructor prepends the code name; drop the one already
        // baked into e.what() so the labeled message carries it once.
        std::string message = e.what();
        const std::string prefix = std::string(error_code_name(e.code())) + ": ";
        if (message.compare(0, prefix.size(), prefix) == 0) {
            message.erase(0, prefix.size());
        }
        throw Error(e.code(), label + ": " + message);
    }
    // Non-ens exceptions (tensor/shape contract violations, ...) propagate
    // unchanged via the rethrow above: they are client-side bugs, not peer
    // failures.
}

std::exception_ptr labeled_exception(const std::string& label, const std::exception_ptr& error) {
    try {
        rethrow_labeled(label, error);
    } catch (...) {
        return std::current_exception();
    }
}

// ------------------------------------------------------------- finishing

InferenceResult finish_request(InflightRequest& request, const core::Selector& selector,
                               nn::Layer& tail, SessionStats& stats) {
    // Merge is already in global body order; combine with the secret
    // selector and finish with the private tail, exactly like the in-proc
    // sequential oracle.
    const Tensor combined =
        selector.n() == 1 ? request.features.front() : selector.apply(request.features);
    InferenceResult result;
    result.logits = tail.forward(combined);
    result.request_id = request.id;
    result.queue_ms = request.queue_ms;  // window-backpressure wait
    result.total_ms = request.submitted.elapsed_ms();
    result.compute_ms = result.total_ms - result.queue_ms;
    stats.record(result.total_ms, result.queue_ms, request.images);
    return result;
}

}  // namespace ens::serve
