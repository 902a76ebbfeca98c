#pragma once
// ens::serve — the unified inference-service API.
//
//   InferenceService service = InferenceService::from_ensembler(ensembler);
//   auto session = service.create_session();
//   std::future<InferenceResult> f = session->submit(images);
//   Tensor logits = f.get().logits;
//
// One InferenceService owns the deployment: the N server bodies, held
// once in a BodyHost and shared by every client (the Ensembler paper
// deploys all N nets server-side), served by the service's own in-process
// ReactorHost (serve/reactor.hpp) on a thread of its own — the same host
// a serve_daemon runs. Each ClientSession models one client device: a
// RemoteSession (the one-shard ShardRouter, the repo's one wire client)
// on one end of a socketpair whose other end the reactor adopted. It
// carries its own secret Selector, wire-format choice, window and
// SessionStats, and holds exactly one thread, its link's demux. submit()
// runs the client phase (head forward, split-point noise, encode) and
// writes the request into the socketpair on the calling thread, then
// returns a pending future; the reactor's workers run the request's N
// bodies concurrently, and the session's demux thread applies the secret
// Selector combine and the tail. The write can block only while the
// reactor has stopped reading the session (a wedged host); sessions set
// no recv timeout, so that wait is as unbounded as the future's.
//
// The in-proc path is bit-identical to the sequential
// split::CollaborativeSession round trip: same messages, same bytes, same
// logits, for every wire format (tests/serve asserts this).
//
// Factory adapters put every trained artifact of this repository behind
// the same interface:
//   from_ensembler(...)    all N member bodies + the stage-3 client bundle
//                          and secret Selector (non-owning overload: the
//                          Ensembler must outlive the service);
//   from_split_model(...)  plain split CI, the N = 1 standard-CI case;
//   from_baseline(...)     any defense/baselines.hpp ProtectedModel
//                          (None / Single / Shredder / DR-single / DR-N).
//
// Concurrency contract: submit() may be called from any number of threads
// and sessions concurrently. The client-side head, noise and tail are
// shared by every session and serialized by one service-wide mutex (layer
// forward caches are not thread-safe); body forwards are serialized per
// body inside BodyHost, so requests — and one request's bodies — overlap
// on distinct bodies across the reactor's workers. Do not train, or run
// inference through, the source model directly while a service built from
// it is live. Sessions must not be used after their service is destroyed.
//
// Failure contract: a body that throws makes the reactor drop that
// session's connection, so every request in flight on it faults with the
// link's typed channel error (ens::Error{channel_closed}, "shard 0: ..."),
// not the body's own message. The session reconnects on its next submit()
// over a fresh socketpair and serves on, bit-identically; its traffic
// counters restart at the reconnect (latency stats carry over).
//
// Cross-process serving (daemon hosting bodies for remote clients over
// TcpChannel) lives in serve/remote.hpp.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "serve/remote.hpp"
#include "serve/stats.hpp"
#include "serve/types.hpp"
#include "split/channel.hpp"
#include "split/tcp_channel.hpp"

namespace ens::core {
class Ensembler;
}
namespace ens::split {
struct SplitModel;
}
namespace ens::defense {
class ProtectedModel;
}

namespace ens::serve {

class InferenceService;
class ReactorHost;

struct SessionOptions {
    /// Payload encoding for this session's wire; default: the service's.
    std::optional<split::WireFormat> wire_format;

    /// Per-client secret selector over the deployed bodies; default: the
    /// source model's selector (all-bodies 1/K combine for the baselines,
    /// take-first for N = 1).
    std::optional<core::Selector> selector;
};

/// One client's handle on the service. Created by
/// InferenceService::create_session(); safe to share across threads.
class ClientSession {
public:
    /// Client phase on the calling thread, then a pending future; up to
    /// the host's in-flight window of requests ride the session at once,
    /// as on every wire client. A client-phase error (bad input, head
    /// forward) throws out of submit(); a host-phase or finish error
    /// faults the future. After a host failure dropped the connection,
    /// submit() first reconnects.
    std::future<InferenceResult> submit(Tensor images);

    /// Blocking convenience: submit + get.
    InferenceResult infer(Tensor images);

    std::uint64_t id() const { return id_; }
    split::WireFormat wire_format() const { return remote_->wire_format(); }
    const core::Selector& selector() const { return remote_->selector(); }

    const SessionStats& stats() const { return remote_->stats(); }
    /// Request payloads sent by this session's end of the socketpair.
    split::TrafficStats uplink_stats() const { return remote_->traffic_stats(); }
    /// Body replies sent by the host's end (the handshake is not billed).
    split::TrafficStats downlink_stats() const;

    /// Clears latency and traffic accounting.
    void reset_stats();

private:
    friend class InferenceService;

    ClientSession(InferenceService& service, std::uint64_t id, split::WireFormat wire_format,
                  core::Selector selector);

    /// Opens a fresh socketpair, hands the host end to the service's
    /// reactor and returns the client end; the host end lands in
    /// `host_end`.
    std::unique_ptr<split::Channel> connect(std::shared_ptr<split::TcpChannel>& host_end);

    InferenceService& service_;
    const std::uint64_t id_;
    // Guards host_end_ and serializes reconnects.
    mutable std::mutex link_mutex_;
    std::shared_ptr<split::TcpChannel> host_end_;
    std::unique_ptr<RemoteSession> remote_;
};

class InferenceService {
public:
    /// Serves a trained Ensembler: all N member bodies server-side, the
    /// stage-3 head/noise/tail + secret Selector as the default client
    /// bundle. Non-owning: `ensembler` must outlive the service.
    static InferenceService from_ensembler(core::Ensembler& ensembler, ServeConfig config = {});

    /// Owning variant: the service keeps the Ensembler alive.
    static InferenceService from_ensembler(std::shared_ptr<core::Ensembler> ensembler,
                                           ServeConfig config = {});

    /// Serves a plain split model (standard CI, N = 1). Takes ownership.
    static InferenceService from_split_model(split::SplitModel model, ServeConfig config = {});

    /// Serves a baseline defense pipeline (K bodies, optional split-point
    /// perturbation). Takes ownership.
    static InferenceService from_baseline(defense::ProtectedModel model, ServeConfig config = {});

    /// Boots a service purely from an on-disk deployment bundle
    /// (serve/bundle.hpp) — bodies (via BodyHost::from_bundle), client
    /// head/noise/tail and the secret selector are rebuilt from arch specs
    /// and save_state checkpoints, so no trainer (and no shared seed
    /// discipline) lives in the process. The bundle's recorded default
    /// wire format overrides `config.default_wire_format`. Typed
    /// ens::Error{checkpoint_error} naming the offending file on any
    /// corrupt/missing/mismatched bundle content. With config.optimize,
    /// every body is run through the graph compiler (nn/compile.hpp) after
    /// restore.
    static InferenceService from_bundle(const std::string& bundle_dir, ServeConfig config = {});

    /// Writes this deployment as a bundle (serve/bundle.hpp): every body,
    /// the client bundle, the service's default selector, and the host's
    /// wire mask and in-flight window (so a from_bundle -> save_bundle
    /// round trip keeps what the original author restricted). Serialized
    /// against concurrent client phases; body weights are immutable in eval
    /// mode, so in-flight requests do not change what is written. Refuses
    /// (typed ens::Error{compile_error}) on a service booted with
    /// config.optimize — compiled bodies (folded BN, fused epilogues) have
    /// no spec representation, and exporting them would corrupt the
    /// bundle; re-export from the unoptimized source instead.
    void save_bundle(const std::string& bundle_dir);

    ~InferenceService();

    InferenceService(const InferenceService&) = delete;
    InferenceService& operator=(const InferenceService&) = delete;

    /// Connects a new session to the service's reactor. The selector must
    /// cover the deployed bodies (std::invalid_argument otherwise), and a
    /// wire format outside the host's wire mask is refused typed
    /// (ens::Error{protocol_error}), as a daemon's handshake refuses it.
    std::shared_ptr<ClientSession> create_session(SessionOptions options = {});

    std::size_t body_count() const;
    std::size_t session_count() const { return sessions_created_.load(); }
    const ServeConfig& config() const { return config_; }

private:
    friend class ClientSession;

    /// Client-side layers shared by sessions (per-service; the Ensembler
    /// deployment has one stage-3 client bundle).
    struct ClientBundle {
        nn::Layer* head = nullptr;
        nn::Layer* noise = nullptr;  // nullable (plain split CI)
        nn::Layer* tail = nullptr;
        std::optional<core::Selector> selector;
    };

    InferenceService(std::shared_ptr<BodyHost> host, ClientBundle bundle, ServeConfig config,
                     std::vector<nn::LayerPtr> owned_layers, std::shared_ptr<void> retained,
                     bool optimized = false);

    std::shared_ptr<BodyHost> host_;
    ClientBundle bundle_;
    ServeConfig config_;
    std::vector<nn::LayerPtr> owned_layers_;
    std::shared_ptr<void> retained_;
    bool optimized_ = false;  // bodies were graph-compiled at boot

    std::mutex client_mutex_;  // serializes the shared client-side layers
    // bundle_'s head/noise/tail behind client_mutex_: what sessions run.
    nn::LayerPtr shared_head_;
    nn::LayerPtr shared_noise_;  // null when the bundle has no noise
    nn::LayerPtr shared_tail_;

    std::unique_ptr<ReactorHost> reactor_;
    std::thread reactor_thread_;

    std::atomic<std::size_t> sessions_created_{0};
};

}  // namespace ens::serve
