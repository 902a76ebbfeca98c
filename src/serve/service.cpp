#include "serve/service.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/ensembler.hpp"
#include "defense/protected_model.hpp"
#include "serve/bundle.hpp"
#include "serve/remote.hpp"
#include "split/codec.hpp"
#include "split/split_model.hpp"

namespace ens::serve {

// ---------------------------------------------------------------- session

ClientSession::ClientSession(InferenceService& service, std::uint64_t id,
                             split::WireFormat wire_format, core::Selector selector)
    : service_(service), id_(id), wire_format_(wire_format), selector_(std::move(selector)) {}

std::future<InferenceResult> ClientSession::submit(InferenceRequest request) {
    ENS_REQUIRE(request.images.defined(), "submit: undefined image tensor");
    InflightRequest inflight;  // starts the total_ms clock before the head runs
    Tensor images = request.images;
    if (images.rank() == 3) {
        // Single [C,H,W] image -> batch of one.
        images = images.reshaped(Shape{1, images.dim(0), images.dim(1), images.dim(2)});
    }
    if (request.id != 0) {
        inflight.id = request.id;
        // Keep auto-assigned ids from ever colliding with explicit ones.
        std::uint64_t expected = service_.next_request_id_.load(std::memory_order_relaxed);
        while (expected <= request.id &&
               !service_.next_request_id_.compare_exchange_weak(
                   expected, request.id + 1, std::memory_order_relaxed)) {
        }
    } else {
        inflight.id = service_.next_request_id_.fetch_add(1, std::memory_order_relaxed);
    }
    inflight.images = images.dim(0);

    // Client phase: the shared head/noise layers cache forward state (not
    // thread-safe). The pooled buffer recycles the serialization scratch
    // across requests.
    auto payload = service_.codec_pool_.acquire();
    {
        const std::lock_guard<std::mutex> lock(service_.client_mutex_);
        Tensor features = service_.bundle_.head->forward(images);
        if (service_.bundle_.noise != nullptr) {
            features = service_.bundle_.noise->forward(features);
        }
        split::encode_into(features, wire_format_, *payload);
    }

    // Host phase: the same per-request core a ReactorHost worker runs,
    // replying with one tagged frame per body on this session's downlink.
    const Stopwatch waited;
    std::unique_lock<std::mutex> wire_lock(wire_mutex_);
    inflight.queue_ms = waited.elapsed_ms();
    try {
        uplink_.send_parts({}, payload->view());
        const std::string uplink = uplink_.recv();
        BodyHost& host = *service_.host_;
        host.process_request(inflight.id, uplink, service_.codec_pool_, downlink_);
        inflight.features.resize(host.body_count());
        for (std::size_t received = 0; received < host.body_count(); ++received) {
            const std::string frame = downlink_.recv();
            std::string_view reply;
            const ReplyTag tag = parse_reply_frame(frame, reply);
            if (tag.request_id != inflight.id || tag.body_seq >= host.body_count() ||
                inflight.features[tag.body_seq].defined()) {
                throw Error(ErrorCode::protocol_error,
                            "ClientSession: reply for request " + std::to_string(tag.request_id) +
                                " body " + std::to_string(tag.body_seq) +
                                " while reading request " + std::to_string(inflight.id));
            }
            inflight.features[tag.body_seq] = split::decode_tensor(reply);
        }
        wire_lock.unlock();

        const std::lock_guard<std::mutex> lock(service_.client_mutex_);
        inflight.promise.set_value(
            finish_request(inflight, selector_, *service_.bundle_.tail, stats_));
    } catch (...) {
        if (wire_lock.owns_lock()) {
            // A host failure after some replies were sent leaves them
            // queued; the next request on this session must not read them.
            while (downlink_.has_pending()) {
                (void)downlink_.recv();
            }
        }
        inflight.promise.set_exception(std::current_exception());
    }
    return inflight.promise.get_future();
}

std::future<InferenceResult> ClientSession::submit(Tensor images) {
    InferenceRequest request;
    request.images = std::move(images);
    return submit(std::move(request));
}

InferenceResult ClientSession::infer(Tensor images) { return submit(std::move(images)).get(); }

void ClientSession::reset_stats() {
    stats_.reset();
    uplink_.reset_stats();
    downlink_.reset_stats();
}

// ---------------------------------------------------------------- service

InferenceService::InferenceService(std::unique_ptr<BodyHost> host, ClientBundle bundle,
                                   ServeConfig config, std::vector<nn::LayerPtr> owned_layers,
                                   std::shared_ptr<void> retained, bool optimized)
    : host_(std::move(host)),
      bundle_(std::move(bundle)),
      config_(config),
      owned_layers_(std::move(owned_layers)),
      retained_(std::move(retained)),
      optimized_(optimized) {
    ENS_REQUIRE(bundle_.head != nullptr && bundle_.tail != nullptr,
                "InferenceService: incomplete client bundle");
    ENS_REQUIRE(bundle_.selector.has_value() && bundle_.selector->n() == host_->body_count(),
                "InferenceService: selector must cover the deployed bodies");
}

InferenceService::~InferenceService() = default;

std::size_t InferenceService::body_count() const { return host_->body_count(); }

std::shared_ptr<ClientSession> InferenceService::create_session(SessionOptions options) {
    const split::WireFormat wire_format =
        options.wire_format.value_or(config_.default_wire_format);
    core::Selector selector = options.selector.value_or(*bundle_.selector);
    ENS_REQUIRE(selector.n() == host_->body_count(),
                "create_session: selector must cover the deployed bodies");
    const std::uint64_t id = sessions_created_.fetch_add(1, std::memory_order_relaxed) + 1;
    return std::shared_ptr<ClientSession>(
        new ClientSession(*this, id, wire_format, std::move(selector)));
}

// -------------------------------------------------------------- factories

InferenceService InferenceService::from_ensembler(core::Ensembler& ensembler,
                                                  ServeConfig config) {
    return from_ensembler(std::shared_ptr<core::Ensembler>(&ensembler, [](core::Ensembler*) {}),
                          config);
}

InferenceService InferenceService::from_ensembler(std::shared_ptr<core::Ensembler> ensembler,
                                                  ServeConfig config) {
    ENS_REQUIRE(ensembler != nullptr, "from_ensembler: null ensembler");
    std::vector<nn::Layer*> bodies;
    bodies.reserve(ensembler->num_networks());
    for (std::size_t i = 0; i < ensembler->num_networks(); ++i) {
        nn::Sequential& body = ensembler->member_body(i);
        body.set_training(false);
        bodies.push_back(&body);
    }
    ClientBundle bundle;
    bundle.head = &ensembler->client_head();
    bundle.noise = &ensembler->client_noise();
    bundle.tail = &ensembler->client_tail();
    bundle.selector = ensembler->selector();
    bundle.head->set_training(false);
    bundle.noise->set_training(false);
    bundle.tail->set_training(false);
    return InferenceService(std::make_unique<BodyHost>(std::move(bodies)), std::move(bundle),
                            config, {}, std::move(ensembler));
}

InferenceService InferenceService::from_split_model(split::SplitModel model, ServeConfig config) {
    ENS_REQUIRE(model.head && model.body && model.tail, "from_split_model: incomplete model");
    model.set_training(false);
    ClientBundle bundle;
    bundle.head = model.head.get();
    bundle.tail = model.tail.get();
    bundle.selector = core::Selector(1, {0});
    std::vector<nn::LayerPtr> bodies;
    bodies.push_back(std::move(model.body));
    std::vector<nn::LayerPtr> owned;
    owned.push_back(std::move(model.head));
    owned.push_back(std::move(model.tail));
    return InferenceService(std::make_unique<BodyHost>(std::move(bodies)), std::move(bundle),
                            config, std::move(owned), nullptr);
}

InferenceService InferenceService::from_baseline(defense::ProtectedModel model,
                                                 ServeConfig config) {
    ENS_REQUIRE(model.head && model.tail && !model.bodies.empty(),
                "from_baseline: incomplete model");
    model.set_training(false);
    ClientBundle bundle;
    bundle.head = model.head.get();
    bundle.noise = model.perturb.get();
    bundle.tail = model.tail.get();
    std::vector<std::size_t> all(model.bodies.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = i;
    }
    bundle.selector = core::Selector(model.bodies.size(), std::move(all));

    std::vector<nn::LayerPtr> bodies;
    for (auto& body : model.bodies) {
        bodies.push_back(std::move(body));
    }
    std::vector<nn::LayerPtr> owned;
    owned.push_back(std::move(model.head));
    if (model.perturb) {
        owned.push_back(std::move(model.perturb));
    }
    owned.push_back(std::move(model.tail));
    return InferenceService(std::make_unique<BodyHost>(std::move(bodies)), std::move(bundle),
                            config, std::move(owned), nullptr);
}

InferenceService InferenceService::from_bundle(const std::string& bundle_dir,
                                               ServeConfig config) {
    // config.optimize compiles the bodies only: the client head/tail stay
    // uncompiled so the bytes a session puts on the wire are identical to
    // an unoptimized boot, and the split-point noise (the defense) is never
    // touched.
    std::unique_ptr<BodyHost> host = BodyHost::from_bundle(
        bundle_dir, 0, static_cast<std::size_t>(-1), config.optimize);
    ClientArtifacts client = load_bundle_client(bundle_dir, host->body_count());

    ClientBundle bundle;
    bundle.head = client.head.get();
    bundle.noise = client.noise.get();  // may be null
    bundle.tail = client.tail.get();
    bundle.selector = client.selector;
    config.default_wire_format = client.default_wire_format;

    std::vector<nn::LayerPtr> owned;
    owned.push_back(std::move(client.head));
    if (client.noise != nullptr) {
        owned.push_back(std::move(client.noise));
    }
    owned.push_back(std::move(client.tail));
    return InferenceService(std::move(host), std::move(bundle), config, std::move(owned), nullptr,
                            config.optimize);
}

void InferenceService::save_bundle(const std::string& bundle_dir) {
    if (optimized_) {
        throw Error(ErrorCode::compile_error,
                    "InferenceService::save_bundle: this service was booted with "
                    "config.optimize — compiled bodies (folded BN, fused epilogues) have no "
                    "spec representation; re-export from an unoptimized boot of the source "
                    "bundle instead");
    }
    BundleArtifacts artifacts;
    for (std::size_t k = 0; k < host_->body_count(); ++k) {
        artifacts.bodies.push_back(&host_->body(k));
    }
    artifacts.head = bundle_.head;
    artifacts.noise = bundle_.noise;
    artifacts.tail = bundle_.tail;
    artifacts.selector = &*bundle_.selector;
    artifacts.default_wire_format = config_.default_wire_format;
    // Re-export the host's policy (a bundle boot adopted the manifest's),
    // not this build's defaults: a from_bundle -> save_bundle round trip
    // must preserve what the original author restricted.
    artifacts.wire_mask = host_->wire_mask();
    artifacts.max_inflight = host_->max_inflight();
    // The client-side layers are shared with submitters' client phases;
    // hold the same mutex so a snapshot never interleaves with a forward.
    const std::lock_guard<std::mutex> lock(client_mutex_);
    serve::save_bundle(bundle_dir, artifacts);
}

}  // namespace ens::serve
