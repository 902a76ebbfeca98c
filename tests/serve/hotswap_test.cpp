// Zero-downtime live bundle hot-swap, end to end across a process
// boundary: the exec'd serve_daemon (--bundle v1 --swap-bundle v2) boots
// generation 1 from disk, receives SIGHUP MID-WINDOW (requests in flight),
// loads generation 2 beside it, and
//
//   - the already-connected session loses NOTHING: every request — before,
//     during and after the swap — resolves and bit-matches the generation
//     1 oracle (version pinning; the swap never touches a live session);
//   - connections opened after the swap handshake deployment_version 2 and
//     bit-match the generation 2 oracle;
//   - the daemon still drains and exits 0 on SIGTERM afterwards.
//
// That generation 1's bodies retire once its last session closes is
// asserted in-thread, where live_versions() is observable
// (ReactorSwap.SessionsPinTheirGenerationAndOldOneRetires).
//
// The two bundles share the client half (head/tail/selector from the same
// seed) and differ ONLY in body weights — exactly a retrain-and-roll —
// so one client legitimately talks to both generations and any
// cross-generation bleed shows up as a bit mismatch.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "daemon_harness.hpp"
#include "serve/bundle.hpp"
#include "serve/deployment.hpp"
#include "serve/protocol.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::size_t kBodies = 3;
constexpr std::uint64_t kSeedV1 = 7100;
constexpr std::uint64_t kSeedV2 = 7200;
constexpr std::chrono::milliseconds kRequestTimeout{120000};

using harness::bundle_dir_for;
using harness::save_generation;

/// Sequential in-proc oracle: client half from `client_parts`, bodies from
/// `body_parts` (pass the same parts twice for generation 1).
class Oracle {
public:
    Oracle(harness::EnsembleParts& client_parts, harness::EnsembleParts& body_parts,
           const core::Selector& selector, split::WireFormat wire) {
        for (nn::LayerPtr& body : body_parts.bodies) {
            bodies_.push_back(body.get());
        }
        session_ = std::make_unique<split::CollaborativeSession>(
            *client_parts.head, bodies_, *client_parts.tail,
            [&selector](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink_, downlink_, wire);
    }

    Tensor infer(const Tensor& images) { return session_->infer(images); }

private:
    std::vector<nn::Layer*> bodies_;
    split::InProcChannel uplink_;
    split::InProcChannel downlink_;
    std::unique_ptr<split::CollaborativeSession> session_;
};

/// Handshakes a throwaway probe connection and reports the deployment
/// version the host is currently advertising to NEW connections.
std::uint32_t probe_version(std::uint16_t port) {
    auto channel = split::tcp_connect("127.0.0.1", port);
    channel->set_recv_timeout(std::chrono::seconds(30));
    return decode_handshake(channel->recv()).deployment_version;
}

TEST(HotSwap, SighupMidWindowLosesNothingAndNewConnectionsGetTheNewGeneration) {
    // Generation 1 and the retrained generation 2: same client half, same
    // geometry, different body weights.
    harness::EnsembleParts parts_v1 = harness::make_linear_ensemble(kSeedV1, kBodies,
                                                                    /*num_selected=*/2);
    harness::EnsembleParts parts_v2 = harness::make_linear_ensemble(kSeedV2, kBodies,
                                                                    /*num_selected=*/2);
    harness::set_eval(parts_v1);
    harness::set_eval(parts_v2);
    const core::Selector selector(kBodies, {0, 2});

    const std::string dir_v1 = bundle_dir_for("hotswap_v1");
    const std::string dir_v2 = bundle_dir_for("hotswap_v2");
    save_generation(dir_v1, parts_v1, parts_v1, selector);
    save_generation(dir_v2, parts_v1, parts_v2, selector);

    const auto daemon = harness::exec_daemon(dir_v1, {"--swap-bundle", dir_v2});
    const std::uint16_t port = daemon->wait_for_port(harness::kDaemonBoot);

    // The sessions' own copy of the client half: a session runs its tail
    // on its receive thread while the oracles below run theirs on this
    // one, and a layer's forward is not safe to run concurrently.
    harness::EnsembleParts client = harness::make_linear_ensemble(kSeedV1, kBodies,
                                                                  /*num_selected=*/2);
    harness::set_eval(client);

    // Session pinned to generation 1. Its completed handshake also proves
    // the daemon's signal handling is in place (it blocks SIGHUP and
    // SIGTERM before its reactor starts) — safe to signal from here on.
    RemoteSession old_session(split::tcp_connect("127.0.0.1", port), *client.head, nullptr,
                              *client.tail, selector, split::WireFormat::f32,
                              std::chrono::seconds(30), /*max_inflight=*/4);
    old_session.set_recv_timeout(kRequestTimeout);
    ASSERT_EQ(old_session.deployment_version(), 1u);

    Oracle oracle_v1(parts_v1, parts_v1, selector, split::WireFormat::f32);
    Rng data_rng(kSeedV1 ^ 0xD00D);
    std::vector<Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;

    // Fill the window, then swap MID-WINDOW.
    for (std::size_t r = 0; r < 4; ++r) {
        inputs.push_back(Tensor::randn(Shape{2, harness::kIn}, data_rng));
        futures.push_back(old_session.submit(inputs.back()));
    }
    ASSERT_EQ(::kill(daemon->pid(), SIGHUP), 0);

    // The pinned session keeps flowing THROUGH and AFTER the swap.
    for (std::size_t r = 0; r < 8; ++r) {
        inputs.push_back(Tensor::randn(Shape{1 + static_cast<std::int64_t>(r % 3), harness::kIn},
                                       data_rng));
        futures.push_back(old_session.submit(inputs.back()));
    }

    // Zero failed requests, every reply bit-matched against generation 1 —
    // the swap is invisible to the pinned session.
    for (std::size_t r = 0; r < futures.size(); ++r) {
        InferenceResult result = futures[r].get();
        const Tensor expected = oracle_v1.infer(inputs[r]);
        EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
            << "pinned-session request " << r << " diverged across the swap";
    }

    // New connections see generation 2 (the swap loads a bundle from disk
    // on the daemon's signal thread — poll until it lands).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    std::uint32_t advertised = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        advertised = probe_version(port);
        if (advertised == 2) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_EQ(advertised, 2u) << "host never advertised the swapped generation";

    // ...and bit-match the generation 2 oracle (same client half, new
    // bodies), while the old session is still open.
    RemoteSession new_session(split::tcp_connect("127.0.0.1", port), *client.head, nullptr,
                              *client.tail, selector, split::WireFormat::f32,
                              std::chrono::seconds(30), /*max_inflight=*/4);
    new_session.set_recv_timeout(kRequestTimeout);
    ASSERT_EQ(new_session.deployment_version(), 2u);

    Oracle oracle_v2(parts_v1, parts_v2, selector, split::WireFormat::f32);
    for (std::size_t r = 0; r < 6; ++r) {
        const Tensor input = Tensor::randn(Shape{2, harness::kIn}, data_rng);
        const InferenceResult result = new_session.infer(input);
        const Tensor expected = oracle_v2.infer(input);
        EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
            << "new-generation request " << r;
        // A v1 reply passed off as v2 would match the OTHER oracle; make
        // the bleed explicit rather than relying on luck.
        EXPECT_NE(expected.to_vector(), oracle_v1.infer(input).to_vector())
            << "generations are indistinguishable — test cannot detect bleed";
    }

    old_session.close();
    new_session.close();
    EXPECT_EQ(daemon->stop(), 0) << "daemon did not drain and exit cleanly after the swap";
}

// ------------------------------------------------- optimized generations

/// Sequential in-proc oracle over conv parts (head + noise chained into
/// the single client head a CollaborativeSession expects).
class ConvOracle {
public:
    ConvOracle(harness::ConvEnsembleParts& client_parts, harness::ConvEnsembleParts& body_parts,
               const core::Selector& selector)
        : chain_({client_parts.head.get(), client_parts.noise.get()}) {
        for (nn::LayerPtr& body : body_parts.bodies) {
            bodies_.push_back(body.get());
        }
        session_ = std::make_unique<split::CollaborativeSession>(
            chain_, bodies_, *client_parts.tail,
            [&selector](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink_, downlink_, split::WireFormat::f32);
    }

    Tensor infer(const Tensor& images) { return session_->infer(images); }

private:
    harness::ChainLayer chain_;
    std::vector<nn::Layer*> bodies_;
    split::InProcChannel uplink_;
    split::InProcChannel downlink_;
    std::unique_ptr<split::CollaborativeSession> session_;
};

TEST(HotSwap, StickyOptimizeCompilesEverySwappedGeneration) {
    // A manager booted with optimize = true must graph-compile generation
    // 1 AND every generation a later swap_from_bundle loads — a hot swap
    // that silently dropped the flag would regress the serving latency
    // class without any visible failure. Conv bodies (Conv -> BN -> ReLU
    // -> GAP) give the compiler a real fold; parity vs the uncompiled
    // oracle is tolerance-class (BN folding re-associates floats).
    constexpr float kFoldTolerance = 1e-4f;
    harness::ConvEnsembleParts v1 = harness::make_conv_ensemble(kSeedV1, kBodies, 2);
    harness::ConvEnsembleParts v2 = harness::make_conv_ensemble(kSeedV2, kBodies, 2);
    harness::warm_batchnorm(v1, kSeedV1 + 7);
    harness::warm_batchnorm(v2, kSeedV2 + 7);
    harness::set_eval(v1);
    harness::set_eval(v2);
    const core::Selector selector(kBodies, {0, 2});

    const std::string dir_v1 = bundle_dir_for("hotswap_opt_v1");
    const std::string dir_v2 = bundle_dir_for("hotswap_opt_v2");
    save_generation(dir_v1, v1, v1, selector);
    save_generation(dir_v2, v1, v2, selector);

    std::shared_ptr<DeploymentManager> manager = DeploymentManager::from_bundle(
        dir_v1, 0, static_cast<std::size_t>(-1), /*optimize=*/true);
    // Structural proof of compilation: Conv folded its BN (gaining a
    // bias) and fused the ReLU, leaving Conv -> GAP.
    const auto expect_compiled = [](const DeploymentManager::Pinned& pinned) {
        const auto& body = dynamic_cast<const nn::Sequential&>(pinned.host->body(0));
        ASSERT_EQ(body.size(), 2u);
        const auto& conv = dynamic_cast<const nn::Conv2d&>(body.layer(0));
        EXPECT_EQ(conv.epilogue(), nn::Epilogue::relu);
        EXPECT_TRUE(conv.has_bias());
    };
    expect_compiled(manager->pin());

    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorHost reactor(manager, config);
    split::ChannelListener listener(0);
    std::thread loop([&] { reactor.run(listener); });

    Rng data_rng(kSeedV1 ^ 0xBEEF);
    const auto expect_parity = [&](harness::ConvEnsembleParts& body_parts, const char* what) {
        RemoteSession session(split::tcp_connect("127.0.0.1", listener.port()), *v1.head,
                              v1.noise.get(), *v1.tail, selector, split::WireFormat::f32,
                              std::chrono::seconds(30), /*max_inflight=*/2);
        session.set_recv_timeout(kRequestTimeout);
        ConvOracle oracle(v1, body_parts, selector);
        for (int r = 0; r < 3; ++r) {
            const Tensor input =
                Tensor::randn(Shape{2, 1, harness::kConvImage, harness::kConvImage}, data_rng);
            const Tensor expected = oracle.infer(input);
            const Tensor actual = session.infer(input).logits;
            ASSERT_EQ(actual.shape(), expected.shape());
            for (std::int64_t i = 0; i < actual.numel(); ++i) {
                EXPECT_NEAR(actual.at(i), expected.at(i), kFoldTolerance)
                    << what << " request " << r << " flat index " << i;
            }
        }
        session.close();
    };

    expect_parity(v1, "generation 1 (compiled at boot)");

    EXPECT_EQ(manager->swap_from_bundle(dir_v2), 2u);
    // The flag stuck: the swapped-in generation is compiled too, and its
    // answers track the generation 2 oracle.
    expect_compiled(manager->pin());
    expect_parity(v2, "generation 2 (compiled by sticky swap)");

    reactor.shutdown();
    loop.join();
}

TEST(HotSwap, SwapFromBundleRefusesACorruptBundleAndKeepsServing) {
    // A failed SIGHUP reload must leave the daemon on the OLD generation,
    // still serving — operator error cannot take the host down. In-process
    // (the failure path needs no second process to be real).
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeedV1, kBodies,
                                                                 /*num_selected=*/2);
    harness::set_eval(parts);
    const core::Selector selector(kBodies, {0, 2});
    const std::string dir = bundle_dir_for("hotswap_good");
    save_generation(dir, parts, parts, selector);

    const std::string broken = bundle_dir_for("hotswap_broken");  // no MANIFEST.ens

    std::shared_ptr<DeploymentManager> manager = DeploymentManager::from_bundle(dir);
    EXPECT_EQ(manager->version(), 1u);
    EXPECT_THROW(manager->swap_from_bundle(broken), Error);
    EXPECT_EQ(manager->version(), 1u) << "failed swap bumped the version";
    EXPECT_EQ(manager->swaps_completed(), 0u);
    EXPECT_EQ(manager->live_versions(), std::vector<std::uint32_t>{1});

    // The surviving generation still serves bit-exact.
    ReactorConfig config;
    config.worker_threads = 1;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorHost reactor(manager, config);
    split::ChannelListener listener(0);
    std::thread loop([&] { reactor.run(listener); });
    {
        RemoteSession session(split::tcp_connect("127.0.0.1", listener.port()), *parts.head,
                              nullptr, *parts.tail, selector, split::WireFormat::f32,
                              std::chrono::seconds(30), /*max_inflight=*/2);
        session.set_recv_timeout(kRequestTimeout);
        ASSERT_EQ(session.deployment_version(), 1u);
        Oracle oracle(parts, parts, selector, split::WireFormat::f32);
        Rng rng(99);
        const Tensor input = Tensor::randn(Shape{2, harness::kIn}, rng);
        EXPECT_EQ(session.infer(input).logits.to_vector(), oracle.infer(input).to_vector());
        session.close();
    }
    reactor.shutdown();
    loop.join();
}

}  // namespace
}  // namespace ens::serve
