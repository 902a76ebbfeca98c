#include "serve/service.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/ensembler.hpp"
#include "defense/protected_model.hpp"
#include "serve/bundle.hpp"
#include "serve/deployment.hpp"
#include "serve/reactor.hpp"
#include "split/split_model.hpp"

namespace ens::serve {

namespace {

/// A shared client-side layer behind the service-wide mutex: every session
/// forwards through the one head, noise and tail, whose forward caches are
/// not thread-safe.
class SerializedLayer final : public nn::Layer {
public:
    SerializedLayer(nn::Layer& inner, std::mutex& mutex) : inner_(inner), mutex_(mutex) {}

    Tensor forward(const Tensor& input) override {
        const std::lock_guard<std::mutex> lock(mutex_);
        return inner_.forward(input);
    }
    Tensor backward(const Tensor& grad_output) override {
        const std::lock_guard<std::mutex> lock(mutex_);
        return inner_.backward(grad_output);
    }
    std::string name() const override { return inner_.name(); }

private:
    nn::Layer& inner_;
    std::mutex& mutex_;
};

}  // namespace

// ---------------------------------------------------------------- session

ClientSession::ClientSession(InferenceService& service, std::uint64_t id,
                             split::WireFormat wire_format, core::Selector selector)
    : service_(service), id_(id) {
    std::shared_ptr<split::TcpChannel> host_end;
    remote_ = std::make_unique<RemoteSession>(connect(host_end), *service_.shared_head_,
                                              service_.shared_noise_.get(),
                                              *service_.shared_tail_, std::move(selector),
                                              wire_format);
    // The handshake arrived, so the reactor has billed it (TcpChannel bills
    // before writing): drop it from the downlink count.
    host_end->reset_stats();
    host_end_ = std::move(host_end);
}

std::unique_ptr<split::Channel> ClientSession::connect(
    std::shared_ptr<split::TcpChannel>& host_end) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
        throw Error(ErrorCode::io_error,
                    std::string("ClientSession: socketpair: ") + std::strerror(errno));
    }
    auto client_end = std::make_unique<split::TcpChannel>(fds[0]);
    host_end = std::make_shared<split::TcpChannel>(fds[1]);
    service_.reactor_->adopt(host_end);
    return client_end;
}

std::future<InferenceResult> ClientSession::submit(Tensor images) {
    {
        // A body failure made the reactor drop the connection: start the
        // next request on a fresh one.
        const std::lock_guard<std::mutex> lock(link_mutex_);
        if (remote_->shard_needs_reconnect(0)) {
            std::shared_ptr<split::TcpChannel> host_end;
            remote_->reconnect_shard(0, connect(host_end));
            host_end->reset_stats();
            host_end_ = std::move(host_end);
        }
    }
    return remote_->submit(std::move(images));
}

InferenceResult ClientSession::infer(Tensor images) { return submit(std::move(images)).get(); }

split::TrafficStats ClientSession::downlink_stats() const {
    const std::lock_guard<std::mutex> lock(link_mutex_);
    return host_end_->stats();
}

void ClientSession::reset_stats() {
    remote_->reset_stats();
    const std::lock_guard<std::mutex> lock(link_mutex_);
    host_end_->reset_stats();
}

// ---------------------------------------------------------------- service

InferenceService::InferenceService(std::shared_ptr<BodyHost> host, ClientBundle bundle,
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
    shared_head_ = std::make_unique<SerializedLayer>(*bundle_.head, client_mutex_);
    if (bundle_.noise != nullptr) {
        shared_noise_ = std::make_unique<SerializedLayer>(*bundle_.noise, client_mutex_);
    }
    shared_tail_ = std::make_unique<SerializedLayer>(*bundle_.tail, client_mutex_);
    // Every peer of this reactor is one of the service's own socketpairs,
    // so no request can be in transit at shutdown: drain without a grace.
    ReactorConfig reactor_config;
    reactor_config.drain_grace = std::chrono::milliseconds(0);
    reactor_ = std::make_unique<ReactorHost>(std::make_shared<DeploymentManager>(host_),
                                             reactor_config);
    reactor_thread_ = std::thread([reactor = reactor_.get()] { reactor->run(); });
}

InferenceService::~InferenceService() {
    reactor_->shutdown();
    reactor_thread_.join();
}

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
    return InferenceService(std::make_shared<BodyHost>(std::move(bodies)), std::move(bundle),
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
    return InferenceService(std::make_shared<BodyHost>(std::move(bodies)), std::move(bundle),
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
    return InferenceService(std::make_shared<BodyHost>(std::move(bodies)), std::move(bundle),
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
