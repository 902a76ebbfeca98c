#pragma once
// Cross-process serving: the daemon half (BodyHost) and the client half
// (RemoteSession) of collaborative inference over a real wire.
//
// The paper's deployment puts the N server bodies and the client on
// DIFFERENT machines; this is that boundary made real. A host process
// owns the bodies (BodyHost) and serves them to TCP clients through a
// ReactorHost; a RemoteSession in the client process runs the private
// head/noise/selector/tail locally and only ever ships split-point feature
// maps — the secret selector never crosses the wire, exactly as §III
// requires. RemoteSession is the one-shard ShardRouter
// (serve/shard_router.hpp), the single wire client.
//
// Protocol v4 (one Channel per connection, used bidirectionally,
// PIPELINED — see serve/protocol.hpp):
//   1. handshake: the host sends one serve::HostInfo message (magic,
//      version, total bodies, hosted body slice, accepted wire formats,
//      per-connection in-flight window, deployment version) so the client
//      can validate its selector covers the deployment, negotiate the wire
//      format and size its request window before any feature bytes flow.
//      A BodyHost defaults to hosting the whole deployment; set_shard()
//      turns it into one shard of a §III-D multiparty layout (the client
//      side of that layout is a many-shard serve::ShardRouter).
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
// advertised handshake and the per-body compute (serve_body).
// ReactorHost (serve/reactor.hpp) is the one socket server — it owns every
// connection and runs each request's body_count() serve_body calls as
// separate items on a fixed worker pool, decoding the request once.
// Forwards are serialized PER BODY — each layer's forward cache is not
// thread-safe, but distinct bodies are independent objects — so one
// request's bodies run concurrently across workers, and concurrent
// connections and one connection's in-flight window share those workers
// (request B waits for body 0 only if request A is still forwarding it).
// The in-proc InferenceService is served the same way: it runs its own
// ReactorHost and talks to it through a RemoteSession per client session.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_router.hpp"
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
    /// graph-compiled boot actually rewrote the tree; the in-proc service
    /// checkpoints it in save_bundle). Do not forward through it while the
    /// host is serving; that bypasses the per-body forward mutexes.
    const nn::Layer& body(std::size_t k) const { return *bodies_.at(k); }
    nn::Layer& body(std::size_t k) { return *bodies_.at(k); }

    /// One request's decoded uplink: the feature tensor every hosted body
    /// forwards, and the wire format its replies mirror.
    struct RequestInput {
        split::WireFormat wire = split::WireFormat::f32;
        Tensor features;
    };

    /// Decodes the codec bytes after a request tag. Throws typed
    /// ens::Error{protocol_error} on a malformed payload.
    static RequestInput decode_request(std::string_view payload);

    /// Computes and ships ONE body's reply to a decoded request: forwards
    /// hosted body `body` (serialized per body via the forward mutexes, so
    /// any number of callers may overlap on distinct bodies), encodes the
    /// output with the request's wire format into a buffer leased from
    /// `reply_pool`, and sends the tagged reply frame through `out`. The
    /// reactor host (serve/reactor.hpp) schedules one (request, body) work
    /// item per call on its shared worker pool, so one request's bodies run
    /// concurrently. Thread-safe; throws typed ens::Error on transport
    /// failure (the caller owns teardown policy).
    void serve_body(std::uint64_t request_id, std::size_t body, const RequestInput& input,
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

/// Client-side handle on ONE whole-deployment BodyHost: the K = 1 case of
/// ShardRouter (it IS a one-shard router — same demux thread, window,
/// finish and failure semantics), and what every in-proc ClientSession
/// holds. Owns the private client bundle references, the secret
/// selector, the wire channel and its one persistent demux thread
/// (created at connect time — never per request); submit() writes the
/// request on the calling thread, so it can block in that write while the
/// host has stopped reading (until the recv timeout fails the link).
/// submit() keeps up to window() requests in flight (futures may resolve
/// out of order); infer() is submit + wait. submit() itself must be called
/// from one thread at a time (the shared head layer's forward cache is not
/// thread-safe), like a client device.
class RemoteSession final : public ShardRouter {
public:
    /// Takes the connected channel; `noise` may be null (plain split CI).
    /// Reads the host handshake under a bounded timeout (so pointing at a
    /// silent endpoint fails typed instead of wedging construction) and
    /// requires the host to serve the WHOLE deployment (a lone shard host
    /// fails the router's tiling check with a typed protocol_error),
    /// selector.n() == the host's body count, and the host to accept
    /// `wire_format`. The in-flight window is min(max_inflight, the host's
    /// advertised cap). After construction the channel waits without
    /// limit — use set_recv_timeout to bound per-request waits.
    RemoteSession(std::unique_ptr<split::Channel> channel, nn::Layer& head, nn::Layer* noise,
                  nn::Layer& tail, core::Selector selector,
                  split::WireFormat wire_format = split::WireFormat::f32,
                  std::chrono::milliseconds handshake_timeout = std::chrono::seconds(30),
                  std::size_t max_inflight = kDefaultMaxInflight);

    /// The full handshake the host sent at connect time (slice, wire mask,
    /// advertised in-flight cap, deployment version). Harness-facing: the
    /// wiretap tests compare this against what a passive observer decodes
    /// from the captured handshake frame.
    HostInfo host_info() const { return shard_map().front(); }
    /// Deployment generation this session is pinned to (from the v4
    /// handshake; 0 = unversioned host). A live hot-swap never changes
    /// this — only connections opened after the swap see the new version.
    std::uint32_t deployment_version() const { return host_info().deployment_version; }
    /// Combined both-direction traffic (one socket carries up and down).
    split::TrafficStats traffic_stats() const { return shard_traffic(0); }
};

}  // namespace ens::serve
