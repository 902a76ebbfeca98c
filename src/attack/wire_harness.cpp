#include "attack/wire_harness.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "serve/remote.hpp"

namespace ens::attack {

// ---------------------------------------------------------------- capture

WireCapture WireCapture::parse(const split::TapLog& log) {
    const std::vector<std::string> received = log.received();
    const std::vector<std::string> sent = log.sent();
    ENS_REQUIRE(!received.empty(),
                "WireCapture::parse: no downlink frames captured (missing handshake)");

    WireCapture capture;
    capture.handshake = serve::decode_handshake(received.front());
    capture.uplink_bytes = log.sent_bytes();
    capture.downlink_bytes = log.received_bytes();

    capture.requests.reserve(sent.size());
    for (const std::string& frame : sent) {
        std::string_view payload;
        CapturedRequest request;
        request.request_id = serve::parse_request_frame(frame, payload);
        request.wire_format = split::encoded_wire_format(payload);
        request.features = split::decode_tensor(payload);
        request.payload_bytes = payload.size();
        capture.requests.push_back(std::move(request));
    }

    capture.replies.reserve(received.size() - 1);
    for (std::size_t i = 1; i < received.size(); ++i) {
        std::string_view payload;
        CapturedReply reply;
        const serve::ReplyTag tag = serve::parse_reply_frame(received[i], payload);
        reply.request_id = tag.request_id;
        reply.body_seq = tag.body_seq;
        reply.wire_format = split::encoded_wire_format(payload);
        reply.payload_bytes = payload.size();
        capture.replies.push_back(reply);
    }
    return capture;
}

std::size_t WireCapture::bodies_inferred_from_traffic() const {
    if (replies.empty()) {
        return 0;
    }
    std::uint32_t max_seq = 0;
    for (const CapturedReply& reply : replies) {
        max_seq = std::max(max_seq, reply.body_seq);
    }
    return static_cast<std::size_t>(max_seq) + 1;
}

WireObservations WireCapture::observations(std::vector<Tensor> truth_batches) const {
    ENS_REQUIRE(truth_batches.empty() || truth_batches.size() == requests.size(),
                "WireCapture::observations: truth batches misaligned with captured requests");
    WireObservations observed;
    observed.features.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!truth_batches.empty()) {
            ENS_REQUIRE(truth_batches[i].dim(0) == requests[i].features.dim(0),
                        "WireCapture::observations: truth batch " + std::to_string(i) +
                            " size does not match the captured frame");
        }
        observed.features.push_back(requests[i].features);
    }
    observed.images = std::move(truth_batches);
    return observed;
}

// ----------------------------------------------------------------- victim

VictimTrace drive_victim_session(std::unique_ptr<split::Channel> transport, nn::Layer& head,
                                 nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                                 const std::vector<Tensor>& batches,
                                 split::WireFormat wire_format, std::size_t max_inflight) {
    ENS_REQUIRE(!batches.empty(), "drive_victim_session: no batches to submit");
    VictimTrace trace;
    trace.tap = std::make_shared<split::TapLog>();
    auto tapped = std::make_unique<split::TapChannel>(std::move(transport), trace.tap);

    serve::RemoteSession session(std::move(tapped), head, noise, tail, std::move(selector),
                                 wire_format, std::chrono::seconds(30), max_inflight);
    trace.handshake = session.host_info();

    // submit() writes each uplink frame on this thread before it returns,
    // so the capture order of requests equals this loop's order even when
    // replies land out of order across the in-flight window.
    std::vector<std::future<serve::InferenceResult>> pending;
    pending.reserve(batches.size());
    for (const Tensor& batch : batches) {
        trace.input_batches.push_back(batch);
        pending.push_back(session.submit(batch));
    }
    trace.logits.reserve(pending.size());
    for (std::future<serve::InferenceResult>& future : pending) {
        trace.logits.push_back(future.get().logits);
    }

    // Read the client's own billing THROUGH the tap before teardown: the
    // parity assertion (tests/split) is that a decorated channel reports
    // the transport's counters, not its own empty ones.
    trace.reported = session.traffic_stats();
    session.close();
    return trace;
}

// ---------------------------------------------------------------- harness

WireHarness::WireHarness(nn::ResNetConfig victim_arch, MiaOptions options)
    : mia_(victim_arch, std::move(options)) {}

WireAttackReport WireHarness::attack(const WireCapture& capture,
                                     const WireObservations& observed,
                                     const std::vector<nn::Sequential*>& victim_bodies,
                                     const data::Dataset& aux,
                                     const std::vector<std::size_t>& true_selection,
                                     const BruteForceOptions& search) {
    ENS_REQUIRE(!victim_bodies.empty(), "WireHarness::attack: no victim bodies");
    WireAttackReport report;
    report.handshake = capture.handshake;
    report.observed_body_count = capture.bodies_inferred_from_traffic();
    report.uplink_bytes = capture.uplink_bytes;
    report.downlink_bytes = capture.downlink_bytes;

    ENS_LOG_INFO << "wire attack: " << capture.requests.size() << " captured requests, "
                 << capture.replies.size() << " replies, fan-out "
                 << report.observed_body_count;

    report.adaptive = mia_.attack_subset_captured(victim_bodies, aux, observed);
    report.selector_search =
        brute_force_attack(mia_, victim_bodies, aux, observed, true_selection, search);
    report.selector_identified = report.selector_search.attacker_pick().is_true_selection;
    return report;
}

}  // namespace ens::attack
