#include "serve/remote.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "nn/compile.hpp"
#include "serve/bundle.hpp"
#include "split/split_model.hpp"

namespace ens::serve {

// ------------------------------------------------------------------ host

BodyHost::BodyHost(std::vector<nn::Layer*> bodies) : bodies_(std::move(bodies)) {
    ENS_REQUIRE(!bodies_.empty(), "BodyHost: no server bodies");
    for (const nn::Layer* body : bodies_) {
        ENS_REQUIRE(body != nullptr, "BodyHost: null body");
    }
    forward_mutexes_ = std::vector<std::mutex>(bodies_.size());
}

BodyHost::BodyHost(std::vector<nn::LayerPtr> bodies) : owned_(std::move(bodies)) {
    ENS_REQUIRE(!owned_.empty(), "BodyHost: no server bodies");
    bodies_.reserve(owned_.size());
    for (const nn::LayerPtr& body : owned_) {
        ENS_REQUIRE(body != nullptr, "BodyHost: null body");
        body->set_training(false);
        bodies_.push_back(body.get());
    }
    forward_mutexes_ = std::vector<std::mutex>(owned_.size());
}

BodyHost BodyHost::from_split_model(split::SplitModel model) {
    ENS_REQUIRE(model.body != nullptr, "BodyHost::from_split_model: no body");
    std::vector<nn::LayerPtr> owned;
    owned.push_back(std::move(model.body));
    return BodyHost(std::move(owned));
}

std::unique_ptr<BodyHost> BodyHost::from_bundle(const std::string& bundle_dir,
                                                std::size_t shard_begin, std::size_t shard_count,
                                                bool optimize) {
    const BundleManifest manifest = load_bundle_manifest(bundle_dir);
    std::vector<nn::LayerPtr> bodies =
        load_bundle_bodies(bundle_dir, manifest, shard_begin, shard_count);
    if (optimize) {
        for (nn::LayerPtr& body : bodies) {
            body = nn::compile_for_inference(std::move(body));
        }
    }
    auto host = std::make_unique<BodyHost>(std::move(bodies));
    host->set_shard(shard_begin, manifest.total_bodies);
    host->set_max_inflight(manifest.max_inflight);
    host->set_wire_mask(manifest.wire_mask);
    return host;
}

void BodyHost::set_shard(std::size_t body_begin, std::size_t total_bodies) {
    ENS_REQUIRE(body_begin + bodies_.size() <= total_bodies,
                "BodyHost::set_shard: slice [" + std::to_string(body_begin) + ", " +
                    std::to_string(body_begin + bodies_.size()) + ") exceeds total " +
                    std::to_string(total_bodies));
    shard_begin_ = body_begin;
    shard_total_ = total_bodies;
}

void BodyHost::set_max_inflight(std::size_t max_inflight) {
    ENS_REQUIRE(max_inflight >= 1 && max_inflight <= kMaxAdvertisedInflight,
                "BodyHost::set_max_inflight: window must be in [1, " +
                    std::to_string(kMaxAdvertisedInflight) + "]");
    max_inflight_ = max_inflight;
}

void BodyHost::set_wire_mask(std::uint32_t wire_mask) {
    ENS_REQUIRE(wire_mask != 0 && (wire_mask & ~split::all_wire_formats_mask()) == 0,
                "BodyHost::set_wire_mask: mask must be a non-empty subset of the supported "
                "wire formats");
    wire_mask_ = wire_mask;
}

HostInfo BodyHost::host_info() const {
    HostInfo info;
    info.total_bodies = shard_total_ == 0 ? bodies_.size() : shard_total_;
    info.body_begin = shard_begin_;
    info.body_count = bodies_.size();
    info.wire_mask = wire_mask_;
    info.max_inflight = static_cast<std::uint32_t>(max_inflight_);
    info.deployment_version = deployment_version_;
    return info;
}

void BodyHost::process_request(std::uint64_t request_id, std::string_view payload,
                               split::WireBufferPool& reply_pool, split::Channel& out) {
    // Mirror the request's payload encoding on the downlink so each round
    // trip stays byte-identical to the in-proc sequential transport.
    const split::WireFormat wire = split::encoded_wire_format(payload);
    const Tensor features = split::decode_tensor(payload);
    for (std::size_t n = 0; n < bodies_.size(); ++n) {
        Tensor output;
        {
            const std::lock_guard<std::mutex> body_lock(forward_mutexes_[n]);
            output = bodies_[n]->forward(features);
        }
        auto lease = reply_pool.acquire();
        split::encode_into(output, wire, *lease);
        unsigned char tag[kReplyTagBytes];
        encode_reply_tag(request_id, static_cast<std::uint32_t>(n), tag);
        out.send_parts(std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                       lease->view());
    }
}

// --------------------------------------------------------------- session

RemoteSession::RemoteSession(std::unique_ptr<split::Channel> channel, nn::Layer& head,
                             nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                             split::WireFormat wire_format,
                             std::chrono::milliseconds handshake_timeout,
                             std::size_t max_inflight)
    : head_(head),
      noise_(noise),
      tail_(tail),
      selector_(std::move(selector)),
      wire_format_(wire_format) {
    ENS_REQUIRE(channel != nullptr, "RemoteSession: null channel");
    ENS_REQUIRE(max_inflight >= 1, "RemoteSession: max_inflight must be >= 1");
    // A silent or wrong endpoint must fail typed (channel_timeout), not
    // wedge construction forever. The helper resets the timeout afterwards;
    // per-request bounds are the caller's via set_recv_timeout.
    const HostInfo host = perform_handshake(*channel, handshake_timeout,
                                            /*session_timeout=*/std::chrono::milliseconds(0),
                                            wire_format_, "RemoteSession");
    if (!host.hosts_all()) {
        throw Error(ErrorCode::protocol_error,
                    "RemoteSession: host serves only " + host.to_string() +
                        " — a shard host needs a ShardRouter, not a RemoteSession");
    }
    body_count_ = host.total_bodies;
    deployment_version_ = host.deployment_version;
    host_info_ = host;
    ENS_REQUIRE(selector_.n() == body_count_,
                "RemoteSession: selector must cover the host's " + std::to_string(body_count_) +
                    " bodies");

    std::vector<ShardPipeline::Endpoint> endpoints;
    ShardPipeline::Endpoint endpoint;
    endpoint.channel = std::move(channel);
    endpoint.body_begin = 0;
    endpoint.body_count = body_count_;
    endpoint.label = "host";
    endpoints.push_back(std::move(endpoint));
    const std::size_t window =
        std::min(max_inflight, static_cast<std::size_t>(host.max_inflight));
    pipeline_ = std::make_unique<ShardPipeline>(
        std::move(endpoints), body_count_, window, "RemoteSession", "open a new session",
        [this](InflightRequest& request) {
            return finish_request(request, selector_, tail_, stats_);
        });
}

std::future<InferenceResult> RemoteSession::submit(Tensor images) {
    ENS_REQUIRE(images.defined(), "RemoteSession::submit: undefined image tensor");
    const Stopwatch submitted;  // total_ms spans the whole request, head included
    if (images.rank() == 3) {
        images = images.reshaped(Shape{1, images.dim(0), images.dim(1), images.dim(2)});
    }
    // Client phase on the calling thread: private head (+ split-point
    // noise), encoded once into a pooled buffer the sender ships tagged.
    Tensor features = head_.forward(images);
    if (noise_ != nullptr) {
        features = noise_->forward(features);
    }
    auto payload = std::make_shared<split::WireBufferPool::Lease>(uplink_pool_.acquire());
    split::encode_into(features, wire_format_, **payload);
    return pipeline_->submit(std::move(payload), images.dim(0), submitted);
}

InferenceResult RemoteSession::infer(Tensor images) { return submit(std::move(images)).get(); }

}  // namespace ens::serve
