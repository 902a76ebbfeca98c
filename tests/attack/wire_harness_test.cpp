// End-to-end wiretap attack suite (attack/wire_harness.hpp) against a real
// BodyHost booted from an on-disk bundle and served by an in-thread
// reactor over loopback TCP: a TapChannel
// records every frame a live RemoteSession puts on a loopback TCP socket,
// WireCapture parses the record into attacker evidence, and the
// capture-replay MIA interfaces are pinned against the in-proc Table-1
// oracle:
//
//   * handshake/frame parsing round-trips what the client negotiated;
//   * f32 captures are BIT-identical to the pre-codec transmit closure, so
//     the captured attack reproduces the in-proc attack scores exactly;
//   * q8 captures carry real dequantization drift (the satellite bug: the
//     in-proc interface silently ignored it) yet stay close enough that
//     the decoder round trip lands within loose bounds of the oracle;
//   * traffic volume reveals N (reply fan-out) but NOT the secret P —
//     different selectors produce byte-identical traffic;
//   * the client's own payload billing (read through the tap) agrees with
//     the eavesdropper's parsed payload bytes (stats-delegation parity).

#include "attack/wire_harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "../serve/serve_harness.hpp"
#include "core/ensembler.hpp"
#include "data/synth_cifar10.hpp"
#include "metrics/similarity.hpp"
#include "serve/bundle.hpp"
#include "split/tcp_channel.hpp"

namespace ens::attack {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kBatch = 8;

/// Tiny trained ResNet Ensembler served from a bundle by in-thread reactors.
/// Same scale as the brute-force suite: width 4, 16 px, N = 3, P = 2.
class WireHarnessFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        arch_ = new nn::ResNetConfig();
        arch_->base_width = 4;
        arch_->image_size = 16;
        arch_->num_classes = 10;

        train_ = new data::SynthCifar10(96, 201, 16);
        aux_ = new data::SynthCifar10(96, 202, 16);
        victim_inputs_ = new data::SynthCifar10(16, 203, 16);

        core::EnsemblerConfig config;
        config.num_networks = 3;
        config.num_selected = 2;
        config.stage1_options.epochs = 1;
        config.stage3_options.epochs = 1;
        config.seed = 21;
        ensembler_ = new core::Ensembler(*arch_, config);
        ensembler_->fit(*train_);

        bundle_dir_ = new std::string("wire_attack_artifacts/bundle");
        fs::remove_all(*bundle_dir_);
        fs::create_directories(*bundle_dir_);
        serve::save_bundle(*bundle_dir_, *ensembler_);

        ensembler_->client_head().set_training(false);
        ensembler_->client_noise().set_training(false);
        ensembler_->client_tail().set_training(false);
    }

    static void TearDownTestSuite() {
        delete bundle_dir_;
        delete ensembler_;
        delete victim_inputs_;
        delete aux_;
        delete train_;
        delete arch_;
        ensembler_ = nullptr;
    }

    static MiaOptions fast_mia() {
        MiaOptions options;
        options.shadow_options.epochs = 1;
        options.decoder_options.epochs = 1;
        options.eval_batch = kBatch;
        options.eval_samples = 16;
        options.seed = 5;
        return options;
    }

    /// The victim's submissions: victim_inputs_ in eval_batch-sized chunks,
    /// partitioned exactly like the in-proc oracle's evaluation loop so
    /// f32 parity is bit-exact.
    static std::vector<Tensor> victim_batches() {
        std::vector<Tensor> batches;
        for (std::size_t cursor = 0; cursor < victim_inputs_->size(); cursor += kBatch) {
            batches.push_back(data::materialize(*victim_inputs_, cursor, kBatch).images);
        }
        return batches;
    }

    /// Boots a host from the bundle, runs one tapped victim session
    /// through it, and returns the trace. The tap sits on the client side,
    /// so where the host runs does not change a captured byte.
    static VictimTrace captured_session(split::WireFormat wire, std::size_t inflight,
                                        const core::Selector& selector) {
        serve::harness::ReactorFixture host(serve::BodyHost::from_bundle(*bundle_dir_));
        return drive_victim_session(split::tcp_connect("127.0.0.1", host.port()),
                                    ensembler_->client_head(), &ensembler_->client_noise(),
                                    ensembler_->client_tail(), selector, victim_batches(), wire,
                                    inflight);
    }

    static nn::ResNetConfig* arch_;
    static data::SynthCifar10* train_;
    static data::SynthCifar10* aux_;
    static data::SynthCifar10* victim_inputs_;
    static core::Ensembler* ensembler_;
    static std::string* bundle_dir_;
};

nn::ResNetConfig* WireHarnessFixture::arch_ = nullptr;
data::SynthCifar10* WireHarnessFixture::train_ = nullptr;
data::SynthCifar10* WireHarnessFixture::aux_ = nullptr;
data::SynthCifar10* WireHarnessFixture::victim_inputs_ = nullptr;
core::Ensembler* WireHarnessFixture::ensembler_ = nullptr;
std::string* WireHarnessFixture::bundle_dir_ = nullptr;

TEST_F(WireHarnessFixture, CaptureParsesHandshakeFramesAndBilling) {
    const VictimTrace trace =
        captured_session(split::WireFormat::f32, /*inflight=*/4, ensembler_->selector());
    const WireCapture capture = WireCapture::parse(*trace.tap);

    // The eavesdropper decodes the SAME handshake the client negotiated.
    EXPECT_EQ(capture.handshake.total_bodies, 3u);
    EXPECT_EQ(capture.handshake.total_bodies, trace.handshake.total_bodies);
    EXPECT_EQ(capture.handshake.wire_mask, trace.handshake.wire_mask);
    EXPECT_EQ(capture.handshake.max_inflight, trace.handshake.max_inflight);
    EXPECT_EQ(capture.handshake.deployment_version, trace.handshake.deployment_version);

    // One uplink frame per submitted batch, in submit order; N replies per
    // request regardless of completion order.
    ASSERT_EQ(capture.requests.size(), victim_batches().size());
    EXPECT_EQ(capture.replies.size(), capture.requests.size() * 3);
    EXPECT_EQ(capture.bodies_inferred_from_traffic(), 3u);
    for (const CapturedRequest& request : capture.requests) {
        EXPECT_EQ(request.wire_format, split::WireFormat::f32);
        ASSERT_EQ(request.features.rank(), 4);
        EXPECT_EQ(request.features.dim(0), static_cast<std::int64_t>(kBatch));
    }

    // f32 wire is lossless: captured uplink features are BIT-identical to
    // the in-proc transmit closure on the same truth batches.
    const split::DeployedPipeline victim = ensembler_->deployed();
    const std::vector<Tensor> batches = victim_batches();
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const Tensor oracle = victim.transmit(batches[i]);
        EXPECT_EQ(capture.requests[i].features.to_vector(), oracle.to_vector())
            << "request " << i;
    }

    // Billing parity (the decorator-delegation satellite, end to end): the
    // client's own traffic counters — read THROUGH the TapChannel — must
    // equal the payload bytes the eavesdropper parsed out of the capture.
    std::uint64_t parsed_payload_bytes = 0;
    for (const CapturedRequest& request : capture.requests) {
        parsed_payload_bytes += request.payload_bytes;
    }
    EXPECT_EQ(trace.reported.messages, capture.requests.size());
    EXPECT_EQ(trace.reported.bytes, parsed_payload_bytes);
    // The raw capture is strictly larger: it includes the request tags.
    EXPECT_EQ(capture.uplink_bytes,
              parsed_payload_bytes + capture.requests.size() * serve::kRequestTagBytes);
}

TEST_F(WireHarnessFixture, TrafficVolumeRevealsNButNotTheSecretP) {
    // Two different secret selections, same deployment, same inputs: every
    // observable — frame counts, fan-out, byte volumes — must be identical,
    // because all N bodies answer every request and the selector runs
    // client-side. This is the wire half of the §III defense argument.
    const VictimTrace trace_a =
        captured_session(split::WireFormat::q8, /*inflight=*/2, core::Selector(3, {0, 1}));
    const VictimTrace trace_b =
        captured_session(split::WireFormat::q8, /*inflight=*/2, core::Selector(3, {1, 2}));
    const WireCapture a = WireCapture::parse(*trace_a.tap);
    const WireCapture b = WireCapture::parse(*trace_b.tap);

    EXPECT_EQ(a.requests.size(), b.requests.size());
    EXPECT_EQ(a.replies.size(), b.replies.size());
    EXPECT_EQ(a.bodies_inferred_from_traffic(), b.bodies_inferred_from_traffic());
    EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
    EXPECT_EQ(a.downlink_bytes, b.downlink_bytes);
    // What the fan-out does reveal is N — which the handshake already said.
    EXPECT_EQ(a.bodies_inferred_from_traffic(), a.handshake.total_bodies);
}

TEST_F(WireHarnessFixture, F32CaptureReplayMatchesInProcOracleExactly) {
    const VictimTrace trace =
        captured_session(split::WireFormat::f32, /*inflight=*/4, ensembler_->selector());
    const WireCapture capture = WireCapture::parse(*trace.tap);
    const WireObservations observed = capture.observations(victim_batches());

    const split::DeployedPipeline victim = ensembler_->deployed();

    // Fresh, identically-seeded attack instances: the ONLY difference is
    // the evidence source, and for lossless f32 the evidence is identical,
    // so the scores must agree to float precision.
    ModelInversionAttack oracle_mia(*arch_, fast_mia());
    const AttackOutcome oracle =
        oracle_mia.attack_adaptive(victim.bodies, *aux_, *victim_inputs_, victim.transmit);

    ModelInversionAttack capture_mia(*arch_, fast_mia());
    const AttackOutcome replayed =
        capture_mia.attack_subset_captured(victim.bodies, *aux_, observed);

    EXPECT_NEAR(replayed.ssim, oracle.ssim, 1e-4f);
    EXPECT_NEAR(replayed.psnr, oracle.psnr, 1e-3f);
    EXPECT_NEAR(replayed.shadow_aux_accuracy, oracle.shadow_aux_accuracy, 1e-4f);
    EXPECT_NEAR(replayed.decoder_aux_mse, oracle.decoder_aux_mse, 1e-5f);
}

TEST_F(WireHarnessFixture, Q8CaptureCarriesDriftYetDecodesWithinOracleBounds) {
    const VictimTrace trace =
        captured_session(split::WireFormat::q8, /*inflight=*/4, ensembler_->selector());
    const WireCapture capture = WireCapture::parse(*trace.tap);
    const std::vector<Tensor> batches = victim_batches();

    // The satellite bug, made visible: a q8 capture decodes to features
    // that are NOT the pre-codec f32 values (dequantization drift) — yet
    // stay close (8-bit affine over the observed range).
    const split::DeployedPipeline victim = ensembler_->deployed();
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const Tensor oracle = victim.transmit(batches[i]);
        const Tensor& captured = capture.requests[i].features;
        EXPECT_EQ(capture.requests[i].wire_format, split::WireFormat::q8);
        EXPECT_NE(captured.to_vector(), oracle.to_vector())
            << "q8 round trip was bit-exact — drift vanished?";
        EXPECT_LT(metrics::relative_l2_distance(captured, oracle), 0.1f);
    }

    // Decoder round trip on the drifted evidence lands within loose bounds
    // of the in-proc oracle: drift perturbs, it must not derail.
    ModelInversionAttack oracle_mia(*arch_, fast_mia());
    const AttackOutcome oracle =
        oracle_mia.attack_adaptive(victim.bodies, *aux_, *victim_inputs_, victim.transmit);

    ModelInversionAttack capture_mia(*arch_, fast_mia());
    const AttackOutcome replayed = capture_mia.attack_subset_captured(
        victim.bodies, *aux_, capture.observations(batches));

    EXPECT_GT(replayed.psnr, 0.0f);
    EXPECT_LT(replayed.psnr, 100.0f);
    EXPECT_GE(replayed.ssim, -1.0f);
    EXPECT_LE(replayed.ssim, 1.0f);
    EXPECT_NEAR(replayed.ssim, oracle.ssim, 0.25f);
    EXPECT_NEAR(replayed.psnr, oracle.psnr, 4.0f);
}

TEST_F(WireHarnessFixture, SelectorSearchOverCapturedTrafficReportsBlindness) {
    const VictimTrace trace =
        captured_session(split::WireFormat::q8, /*inflight=*/4, ensembler_->selector());
    const WireCapture capture = WireCapture::parse(*trace.tap);
    const WireObservations observed = capture.observations(victim_batches());
    const split::DeployedPipeline victim = ensembler_->deployed();

    WireHarness harness(*arch_, fast_mia());
    BruteForceOptions search;
    search.min_subset_size = 2;  // attacker knows |P| = 2 (worst case for us)
    search.max_subset_size = 2;
    const WireAttackReport report = harness.attack(
        capture, observed, victim.bodies, *aux_, ensembler_->selector().indices(), search);

    EXPECT_EQ(report.observed_body_count, 3u);
    EXPECT_EQ(report.handshake.total_bodies, 3u);
    EXPECT_GT(report.uplink_bytes, 0u);
    EXPECT_GT(report.downlink_bytes, 0u);
    // The downlink's structure (not raw volume — the per-body reply maps
    // can be smaller than the split map) is what leaks N: every request
    // fans out into exactly N tagged replies.
    EXPECT_EQ(capture.replies.size(), capture.requests.size() * 3u);

    EXPECT_EQ(report.selector_search.search_space_size, 3u);  // C(3,2)
    ASSERT_EQ(report.selector_search.results.size(), 3u);
    std::size_t true_count = 0;
    for (const SubsetAttackResult& result : report.selector_search.results) {
        EXPECT_EQ(result.subset.size(), 2u);
        true_count += result.is_true_selection ? 1 : 0;
    }
    EXPECT_EQ(true_count, 1u);
    EXPECT_EQ(report.selector_identified,
              report.selector_search.attacker_pick().is_true_selection);
}

TEST(WireCaptureParse, RejectsCapturesWithoutHandshake) {
    split::TapLog empty;
    EXPECT_THROW(WireCapture::parse(empty), std::invalid_argument);
}

}  // namespace
}  // namespace ens::attack
