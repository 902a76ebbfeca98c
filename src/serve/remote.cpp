#include "serve/remote.hpp"

#include <utility>

#include "common/error.hpp"
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

BodyHost::RequestInput BodyHost::decode_request(std::string_view payload) {
    // Mirror the request's payload encoding on the downlink so each round
    // trip stays byte-identical to the in-proc sequential transport.
    return RequestInput{split::encoded_wire_format(payload), split::decode_tensor(payload)};
}

void BodyHost::serve_body(std::uint64_t request_id, std::size_t body, const RequestInput& input,
                          split::WireBufferPool& reply_pool, split::Channel& out) {
    Tensor output;
    {
        const std::lock_guard<std::mutex> body_lock(forward_mutexes_.at(body));
        output = bodies_[body]->forward(input.features);
    }
    auto lease = reply_pool.acquire();
    split::encode_into(output, input.wire, *lease);
    unsigned char tag[kReplyTagBytes];
    encode_reply_tag(request_id, static_cast<std::uint32_t>(body), tag);
    out.send_parts(std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                   lease->view());
}

// --------------------------------------------------------------- session

namespace {

std::vector<std::unique_ptr<split::Channel>> one_shard(std::unique_ptr<split::Channel> channel) {
    std::vector<std::unique_ptr<split::Channel>> shards;
    shards.push_back(std::move(channel));
    return shards;
}

}  // namespace

RemoteSession::RemoteSession(std::unique_ptr<split::Channel> channel, nn::Layer& head,
                             nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                             split::WireFormat wire_format,
                             std::chrono::milliseconds handshake_timeout,
                             std::size_t max_inflight)
    : ShardRouter(one_shard(std::move(channel)), head, noise, tail, std::move(selector),
                  wire_format, handshake_timeout, max_inflight) {}

}  // namespace ens::serve
