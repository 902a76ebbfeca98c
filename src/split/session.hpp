#pragma once
// Collaborative-inference session (Fig. 1a / Fig. 2 of the paper).
//
// NOTE: this is the INTERNAL single-round-trip transport. It is the
// sequential reference implementation every ens::serve path is tested
// against; deployment-facing code should go through ens::serve
// (src/serve/), which owns sessions and serves many concurrent clients
// over this same wire protocol.
//
// One inference round trip:
//   (1) client runs its head (which may embed the split-point noise layer)
//       and sends the intermediate features up;
//   (2) the server runs EVERY deployed body on the received features and
//       sends each body's output back (N messages — the downlink growth is
//       Ensembler's main overhead, cf. Table III);
//   (3) the client combines the returned feature maps (the secret Selector
//       for Ensembler, trivial take-first for standard CI) and runs the
//       tail.
//
// The session moves every feature map through the Channel codec so traffic
// statistics reflect real serialized bytes. Standard CI is the N=1 case.

#include <functional>
#include <vector>

#include "nn/layer.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"

namespace ens::split {

/// Combines the N server feature maps into the tail's input.
using Combiner = std::function<Tensor(const std::vector<Tensor>&)>;

/// Take-first combiner for standard (non-ensembled) CI.
Combiner single_body_combiner();

class CollaborativeSession {
public:
    /// Non-owning: the caller keeps the layers and channels alive. Layers
    /// should already be in eval mode for deployment-style inference.
    /// `wire_format` selects the feature-message payload encoding (both
    /// directions); quantized formats shrink Table III's communication
    /// column at a bounded feature-precision cost (see split/quant.hpp).
    CollaborativeSession(nn::Layer& client_head, std::vector<nn::Layer*> server_bodies,
                         nn::Layer& client_tail, Combiner combiner, Channel& uplink,
                         Channel& downlink, WireFormat wire_format = WireFormat::f32);

    /// Runs the full round trip for a batch of images; returns logits.
    Tensor infer(const Tensor& images);

    std::size_t body_count() const { return server_bodies_.size(); }
    WireFormat wire_format() const { return wire_format_; }
    TrafficStats uplink_stats() const { return uplink_.stats(); }
    TrafficStats downlink_stats() const { return downlink_.stats(); }
    void reset_traffic();

private:
    nn::Layer& client_head_;
    std::vector<nn::Layer*> server_bodies_;
    nn::Layer& client_tail_;
    Combiner combiner_;
    Channel& uplink_;
    Channel& downlink_;
    WireFormat wire_format_;
};

}  // namespace ens::split
