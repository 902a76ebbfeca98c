#pragma once
// Cross-process serving: the daemon half (BodyHost) and the client half
// (RemoteSession) of collaborative inference over a real wire.
//
// The paper's deployment puts the N server bodies and the client on
// DIFFERENT machines; this is that boundary made real. A host process
// owns the bodies (BodyHost) and serves them to TCP clients through a
// ReactorHost; a RemoteSession in the client process runs the private head/noise/selector/
// tail locally and only ever ships split-point feature maps — the secret
// selector never crosses the wire, exactly as §III requires.
//
// Protocol v3 (one Channel per connection, used bidirectionally,
// PIPELINED — see serve/protocol.hpp):
//   1. handshake: the host sends one serve::HostInfo message (magic,
//      version, total bodies, hosted body slice, accepted wire formats,
//      per-connection in-flight window) so the client can validate its
//      selector covers the deployment, negotiate the wire format and size
//      its request window before any feature bytes flow. A BodyHost
//      defaults to hosting the whole deployment; set_shard() turns it into
//      one shard of a §III-D multiparty layout (the client side of that
//      layout is serve::ShardRouter).
//   2. per request: the client sends one request-id-tagged encoded feature
//      tensor; the host replies with body_count tagged feature maps (one
//      per body, each naming the request id and body index), each encoded
//      with the SAME wire format as its request. Up to max_inflight
//      requests ride the connection concurrently and replies complete in
//      whatever order the bodies finish — tags, not stream position, carry
//      the correspondence. Per-request bytes are byte-for-byte what the
//      in-proc sequential CollaborativeSession would put on its downlink,
//      so pipelined remote inference stays bit-identical to local
//      (tests/serve asserts this).
//   3. teardown: the client closes its channel; the host drops the
//      connection.
//
// BodyHost is the deployment, not the server: it holds the bodies, the
// advertised handshake and the per-request compute (process_request).
// ReactorHost (serve/reactor.hpp) is the one socket server — it owns every
// connection and runs process_request on a fixed worker pool. Forwards are
// serialized PER BODY — each layer's forward cache is not thread-safe, but
// distinct bodies are independent objects — so concurrent connections and
// one connection's in-flight window overlap their compute across
// different bodies (the body array behaves like a pipeline: request B runs
// body 0 while request A runs body 1).

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "serve/pipeline.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"
#include "serve/types.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"

namespace ens::split {
struct SplitModel;
}

namespace ens::serve {

/// Daemon-side host of the N server bodies.
class BodyHost {
public:
    /// Non-owning: the caller keeps the bodies alive (already eval-mode).
    explicit BodyHost(std::vector<nn::Layer*> bodies);

    /// Owning: the host keeps the layers alive (set to eval mode here).
    explicit BodyHost(std::vector<nn::LayerPtr> bodies);

    /// Hosts the body of a plain split model (N = 1 standard CI).
    static BodyHost from_split_model(split::SplitModel model);

    /// Boots a host purely from an on-disk deployment bundle
    /// (serve/bundle.hpp): rebuilds bodies [shard_begin, shard_begin +
    /// shard_count) from their arch specs + save_state checkpoints, with
    /// NO trainer in the process, declares the shard slice and adopts the
    /// bundle's suggested in-flight window. shard_count == npos hosts
    /// [shard_begin, N). The secret CLIENT.ens file is never read — a
    /// body-host machine only ever needs MANIFEST.ens plus its own slice's
    /// body_*.ckpt files on disk. Typed ens::Error{checkpoint_error}
    /// naming the offending file on corrupt/missing/mismatched bundle
    /// content. With `optimize`, every restored body is run through the
    /// graph compiler (nn/compile.hpp: BN folding, activation fusion,
    /// noise baking, repack) before hosting — outputs stay within the
    /// per-wire-format parity tolerance of an unoptimized boot.
    /// (unique_ptr because BodyHost owns mutexes and cannot move through
    /// a configuring factory.)
    static std::unique_ptr<BodyHost> from_bundle(
        const std::string& bundle_dir, std::size_t shard_begin = 0,
        std::size_t shard_count = static_cast<std::size_t>(-1), bool optimize = false);

    /// Declares this host to be one shard of a larger deployment: it serves
    /// global bodies [body_begin, body_begin + body_count()) of
    /// `total_bodies`. Until called, the host claims the whole deployment
    /// ([0, body_count()) of body_count()). The shard slice is advertised in
    /// the handshake; a ShardRouter validates that its shards tile the full
    /// range.
    void set_shard(std::size_t body_begin, std::size_t total_bodies);

    /// Caps how many requests one connection keeps in flight. Advertised in
    /// the handshake; a client's effective window is min(its own cap,
    /// this). The reactor stops reading a connection whose window is full.
    /// >= 1.
    void set_max_inflight(std::size_t max_inflight);
    std::size_t max_inflight() const { return max_inflight_; }

    /// Restricts which payload encodings this host advertises (and clients
    /// may negotiate). Defaults to everything the build supports; a bundle
    /// restore adopts the mask its author recorded. Must be a non-empty
    /// subset of split::all_wire_formats_mask().
    void set_wire_mask(std::uint32_t wire_mask);
    std::uint32_t wire_mask() const { return wire_mask_; }

    /// Stamps the deployment generation this host's handshakes advertise
    /// (serve/deployment.hpp hot-swap version pinning). Defaults to 0 =
    /// "unversioned static host"; a DeploymentManager assigns 1, 2, ... as
    /// bundles are swapped in.
    void set_deployment_version(std::uint32_t version) { deployment_version_ = version; }
    std::uint32_t deployment_version() const { return deployment_version_; }

    /// What the handshake advertises (slice + accepted wire formats +
    /// in-flight window).
    HostInfo host_info() const;

    std::size_t body_count() const { return bodies_.size(); }

    /// The k-th hosted body (structural inspection — tests assert a
    /// graph-compiled boot actually rewrote the tree). Do not forward
    /// through it while the host is serving; that bypasses the per-body
    /// forward mutexes.
    const nn::Layer& body(std::size_t k) const { return *bodies_.at(k); }

    /// Computes and ships the replies for ONE tagged request: decodes
    /// `payload` (the codec bytes after the request tag), runs every
    /// hosted body (serialized per body via the forward mutexes, so any
    /// number of callers may overlap on distinct bodies), and sends
    /// body_count() tagged reply frames through `out`, each encoded into a
    /// buffer leased from `reply_pool` with the request's own wire format
    /// mirrored. This is the whole compute path of a served request: the
    /// reactor host (serve/reactor.hpp) dispatches parsed frames from ANY
    /// connection onto its shared bounded worker pool, and each worker
    /// calls this. Thread-safe; throws typed ens::Error on decode/transport
    /// failure (the caller owns teardown policy).
    void process_request(std::uint64_t request_id, std::string_view payload,
                         split::WireBufferPool& reply_pool, split::Channel& out);

private:
    std::vector<nn::Layer*> bodies_;
    std::vector<nn::LayerPtr> owned_;
    // Shard slice advertised in the handshake (set_shard overrides the
    // whole-deployment default).
    std::size_t shard_begin_ = 0;
    std::size_t shard_total_ = 0;  // 0 = "all bodies" until set_shard
    std::size_t max_inflight_ = kDefaultMaxInflight;
    std::uint32_t wire_mask_ = split::all_wire_formats_mask();
    std::uint32_t deployment_version_ = 0;
    // One mutex per body: a layer's forward cache is not thread-safe, but
    // distinct bodies may run concurrently — for different connections AND
    // for different in-flight requests of one connection.
    std::vector<std::mutex> forward_mutexes_;
};

/// Client-side handle on a BodyHost: the remote analogue of ClientSession.
/// Owns the private client bundle references, the secret selector, the
/// wire channel and its persistent I/O workers (created at connect time —
/// never per request). submit() keeps up to window() requests in flight
/// (futures may resolve out of order); infer() is submit + wait. submit()
/// itself must be called from one thread at a time (the shared head
/// layer's forward cache is not thread-safe), like a client device.
class RemoteSession {
public:
    /// Takes the connected channel; `noise` may be null (plain split CI).
    /// Reads the host handshake under a bounded timeout (so pointing at a
    /// silent endpoint fails typed instead of wedging construction) and
    /// requires the host to serve the WHOLE deployment (a shard host needs
    /// a ShardRouter), selector.n() == the host's body count, and the host
    /// to accept `wire_format`. The in-flight window is
    /// min(max_inflight, the host's advertised cap). After construction
    /// the channel waits without limit — use set_recv_timeout to bound
    /// per-request waits.
    RemoteSession(std::unique_ptr<split::Channel> channel, nn::Layer& head, nn::Layer* noise,
                  nn::Layer& tail, core::Selector selector,
                  split::WireFormat wire_format = split::WireFormat::f32,
                  std::chrono::milliseconds handshake_timeout = std::chrono::seconds(30),
                  std::size_t max_inflight = kDefaultMaxInflight);

    /// Pipelined submission: runs the client phase (head + noise + encode)
    /// on the calling thread, ships the tagged request, and returns a
    /// future that resolves — possibly out of order with other in-flight
    /// requests — once the host's body maps are back and the secret
    /// selector + tail have run. Blocks while window() requests are
    /// already in flight (backpressure). On transport/protocol failure the
    /// future faults with a typed ens::Error.
    std::future<InferenceResult> submit(Tensor images);

    /// One blocking round trip over the wire (submit + wait).
    InferenceResult infer(Tensor images);

    /// Caps how long each in-flight request waits for the host (0 =
    /// forever).
    void set_recv_timeout(std::chrono::milliseconds timeout) {
        pipeline_->set_recv_timeout(timeout);
    }

    std::size_t body_count() const { return body_count_; }
    /// Deployment generation this session is pinned to (from the v4
    /// handshake; 0 = unversioned host). A live hot-swap never changes
    /// this — only connections opened after the swap see the new version.
    std::uint32_t deployment_version() const { return deployment_version_; }
    /// The full handshake the host sent at connect time (slice, wire mask,
    /// advertised in-flight cap, deployment version). Harness-facing: the
    /// wiretap tests compare this against what a passive observer decodes
    /// from the captured handshake frame.
    const HostInfo& host_info() const { return host_info_; }
    /// Effective in-flight window negotiated with the host.
    std::size_t window() const { return pipeline_->window(); }
    split::WireFormat wire_format() const { return wire_format_; }
    const core::Selector& selector() const { return selector_; }
    const SessionStats& stats() const { return stats_; }

    /// Combined both-direction traffic (one socket carries up and down).
    split::TrafficStats traffic_stats() const { return pipeline_->channel_traffic(0); }

    /// Disconnects from the host (the host drops this connection).
    /// Outstanding futures fault typed.
    void close() { pipeline_->close(); }

private:
    nn::Layer& head_;
    nn::Layer* noise_;
    nn::Layer& tail_;
    core::Selector selector_;
    split::WireFormat wire_format_;
    std::size_t body_count_ = 0;
    std::uint32_t deployment_version_ = 0;
    HostInfo host_info_;
    split::WireBufferPool uplink_pool_;
    SessionStats stats_;
    std::unique_ptr<ShardPipeline> pipeline_;
};

}  // namespace ens::serve
