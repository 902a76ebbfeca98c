#pragma once
// Shared pieces of the reactor suites (reactor_test, reactor_drain_test):
// the deterministic whole-deployment host, the client half that connects
// to it, and the in-proc sequential CollaborativeSession oracle that every
// served reply is bit-compared against. The selector is {0, bodies - 1} of
// `bodies` ({0, 2} of the default 3).

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/selector.hpp"
#include "serve/remote.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"
#include "split/session.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve::harness {

constexpr std::size_t kBodies = 3;
constexpr std::uint64_t kSeed = 4100;
constexpr std::chrono::milliseconds kRequestTimeout{120000};

inline core::Selector selector_for(std::size_t bodies) {
    return core::Selector(bodies, {0, bodies - 1});
}

/// In-memory whole-deployment host over the shared deterministic ensemble
/// geometry (same seed -> bit-identical bodies everywhere).
inline std::shared_ptr<BodyHost> make_ensemble_host(std::uint64_t seed) {
    EnsembleParts parts = make_linear_ensemble(seed, kBodies, /*num_selected=*/2);
    return std::make_shared<BodyHost>(std::move(parts.bodies));
}

/// The sequential in-proc oracle. The client half (head/tail) and the body
/// weights may come from DIFFERENT seeds: a hot swap replaces only the
/// host's bodies, so a post-swap session is client seed + NEW body seed.
struct Oracle {
    EnsembleParts client_parts;
    EnsembleParts body_parts;
    core::Selector selector;
    split::InProcChannel uplink;
    split::InProcChannel downlink;
    std::unique_ptr<split::CollaborativeSession> session;

    Oracle(std::uint64_t client_seed, std::uint64_t body_seed, split::WireFormat wire,
           std::size_t bodies = kBodies)
        : client_parts(make_linear_ensemble(client_seed, bodies, /*num_selected=*/2)),
          body_parts(make_linear_ensemble(body_seed, bodies, /*num_selected=*/2)),
          selector(selector_for(bodies)) {
        set_eval(client_parts);
        set_eval(body_parts);
        std::vector<nn::Layer*> body_layers;
        for (nn::LayerPtr& body : body_parts.bodies) {
            body_layers.push_back(body.get());
        }
        session = std::make_unique<split::CollaborativeSession>(
            *client_parts.head, body_layers, *client_parts.tail,
            [this](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink, downlink, wire);
    }
};

/// Client half for a RemoteSession against a `bodies`-body host of `seed`.
struct ClientHalf {
    EnsembleParts parts;
    core::Selector selector;

    explicit ClientHalf(std::uint64_t seed, std::size_t bodies = kBodies)
        : parts(make_linear_ensemble(seed, bodies, /*num_selected=*/2)),
          selector(selector_for(bodies)) {
        set_eval(parts);
    }

    // RemoteSession is deliberately pinned in place (mutex + stats
    // members), so hand sessions out behind unique_ptr.
    std::unique_ptr<RemoteSession> connect(std::uint16_t port, split::WireFormat wire,
                                           std::size_t max_inflight = kDefaultMaxInflight) {
        auto session = std::make_unique<RemoteSession>(
            split::tcp_connect("127.0.0.1", port), *parts.head, nullptr, *parts.tail,
            selector, wire, std::chrono::seconds(30), max_inflight);
        session->set_recv_timeout(kRequestTimeout);
        return session;
    }
};

}  // namespace ens::serve::harness
