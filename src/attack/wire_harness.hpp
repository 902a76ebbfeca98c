#pragma once
// Adversarial wire client — the §II-B eavesdropper run against a REAL
// serving boundary instead of an in-proc closure.
//
// Everything in attack/mia.hpp up to this point attacked a
// split::DeployedPipeline living in the attacker's own process: the
// `victim_transmit` closure hands it pre-codec f32 features on demand. A
// real deployment gives the semi-honest server strictly less — and
// slightly different — evidence:
//
//   * the ONE handshake frame the host sends (total bodies, shard slice,
//     wire mask, in-flight window, deployment version);
//   * per request, the tagged UPLINK frame: request id + codec bytes of
//     the noised split-point features, q8/q16-quantized when negotiated —
//     so the attacker's tensors carry dequantization drift;
//   * per request, body_count tagged DOWNLINK reply frames, whose fan-out
//     reveals N (all bodies answer every request) but NOT the secret P
//     (the selector runs client-side; reply traffic is identical for
//     every possible selection — the core §III defense property);
//   * traffic volume and ordering. Uplink frames leave in submit order
//     even under a deep pipeline window, so a harness that knows which
//     batches it submitted can align captured features with truth images
//     for oracle scoring.
//
// This header turns a split::TapLog (recorded by a TapChannel wrapped
// around a live RemoteSession transport) into that evidence (WireCapture),
// drives a scripted victim session to produce the log in the first place
// (drive_victim_session), and mounts the capture-replay attacks of
// attack/mia.hpp + attack/brute_force.hpp against it (WireHarness).
//
// tests/attack/wire_harness_test.cpp runs all of it against a BodyHost
// booted from an on-disk bundle and served over loopback TCP;
// bench/wire_attack.cpp sweeps wire
// format x window depth x graph-compiled hosting into BENCH_wire_attack.json.

#include <cstdint>
#include <memory>
#include <vector>

#include "attack/brute_force.hpp"
#include "attack/mia.hpp"
#include "core/selector.hpp"
#include "serve/protocol.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"
#include "split/tap_channel.hpp"

namespace ens::attack {

/// One captured uplink frame, parsed and decoded.
struct CapturedRequest {
    std::uint64_t request_id = 0;
    split::WireFormat wire_format = split::WireFormat::f32;
    Tensor features;                 ///< decoded (dequantized) split-point batch
    std::size_t payload_bytes = 0;   ///< codec bytes (tag excluded)
};

/// One captured downlink reply frame. The payload is deliberately NOT
/// decoded: the replies are per-body feature maps the CLIENT consumes; the
/// attack only uses their count/fan-out and volume (decoding them is free
/// to add later — the bytes are in the TapLog).
struct CapturedReply {
    std::uint64_t request_id = 0;
    std::uint32_t body_seq = 0;
    split::WireFormat wire_format = split::WireFormat::f32;
    std::size_t payload_bytes = 0;
};

/// Everything a passive eavesdropper can parse out of one tapped serving
/// connection.
struct WireCapture {
    serve::HostInfo handshake;              ///< decoded first downlink frame
    std::vector<CapturedRequest> requests;  ///< capture (= submit) order
    std::vector<CapturedReply> replies;     ///< arrival order (may interleave)
    std::uint64_t uplink_bytes = 0;         ///< raw captured bytes, tags included
    std::uint64_t downlink_bytes = 0;

    /// Parses a TapLog recorded on the CLIENT side of a serve-protocol v4
    /// connection: received[0] must be the handshake, every later received
    /// frame a tagged reply, every sent frame a tagged request. Throws
    /// typed ens::Error{protocol_error} on anything else — a capture that
    /// does not parse is evidence about the tap, not the deployment.
    static WireCapture parse(const split::TapLog& log);

    /// N as the traffic reveals it: the reply fan-out per request (every
    /// body answers every request, so this equals the handshake's
    /// total_bodies — and says NOTHING about the secret P).
    std::size_t bodies_inferred_from_traffic() const;

    /// The capture as MIA evidence: decoded uplink batches in capture
    /// order, optionally aligned with `truth_batches` (the harness's
    /// record of what the victim submitted, same order/shape; pass empty
    /// for attacker-realistic, score-free observations).
    WireObservations observations(std::vector<Tensor> truth_batches = {}) const;
};

/// What drive_victim_session hands back to the experiment.
struct VictimTrace {
    std::shared_ptr<split::TapLog> tap;  ///< the eavesdropper's record
    std::vector<Tensor> input_batches;   ///< submitted truth, submit order
    std::vector<Tensor> logits;          ///< per-batch results, submit order
    serve::HostInfo handshake;           ///< what the session negotiated
    split::TrafficStats reported;        ///< the client's own payload billing
};

/// Runs a REAL RemoteSession over `transport` wrapped in a TapChannel,
/// submits every batch through the pipelined window (submit order = uplink
/// capture order, even though replies complete out of order), closes the
/// session and returns the tap plus the client-side truth. `noise` may be
/// null. The returned `reported` stats are read through the tap, so they
/// must equal the bare transport's — the decorator-delegation contract
/// tests/split/tap_channel_test.cpp pins.
VictimTrace drive_victim_session(std::unique_ptr<split::Channel> transport, nn::Layer& head,
                                 nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                                 const std::vector<Tensor>& batches,
                                 split::WireFormat wire_format,
                                 std::size_t max_inflight = serve::kDefaultMaxInflight);

/// One full wire-attack campaign against one capture.
struct WireAttackReport {
    serve::HostInfo handshake;
    std::size_t observed_body_count = 0;  ///< reply fan-out (reveals N, not P)
    std::uint64_t uplink_bytes = 0;
    std::uint64_t downlink_bytes = 0;

    /// Adaptive (all-N) capture-replay inversion — the headline PSNR/SSIM.
    AttackOutcome adaptive;

    /// §III-D selector brute force over the captured evidence.
    BruteForceReport selector_search;

    /// Did the attacker's own best criterion land on the true selection?
    /// (The defense claim is that this is no better than chance.)
    bool selector_identified = false;
};

/// Mounts the capture-replay attack suite: parses nothing (callers hold a
/// WireCapture already), attacks everything. The harness owns one
/// ModelInversionAttack so repeated campaigns stay seed-decorrelated the
/// same way repeated in-proc attacks do.
class WireHarness {
public:
    WireHarness(nn::ResNetConfig victim_arch, MiaOptions options);

    /// `victim_bodies` are the attacker's white-box copies of ALL N
    /// deployed bodies; `true_selection` is oracle-side labeling (empty if
    /// unknown). `observed` must carry aligned truth images for the oracle
    /// scores (capture.observations(truth_batches)).
    WireAttackReport attack(const WireCapture& capture, const WireObservations& observed,
                            const std::vector<nn::Sequential*>& victim_bodies,
                            const data::Dataset& aux,
                            const std::vector<std::size_t>& true_selection,
                            const BruteForceOptions& search = {});

    ModelInversionAttack& mia() { return mia_; }

private:
    ModelInversionAttack mia_;
};

}  // namespace ens::attack
