// Protocol-v3 pipelining proofs:
//   * a windowed ShardRouter (multiple requests in flight across three
//     in-thread shard reactors, real loopback TCP) is BIT-IDENTICAL to the sequential
//     in-proc CollaborativeSession oracle for f32 and q8 wire — pipelining
//     reorders work, never bytes;
//   * completion is genuinely OUT OF ORDER: a host that holds request A and
//     answers B first resolves B's future while A is still pending, and
//     each future carries its own request's logits (ids never cross);
//   * hostile reply frames fail typed: replies tagged with unknown ids and
//     duplicate (id, body) replies are ens::Error{protocol_error} — never
//     hangs or silent merges. (The host side — hostile REQUEST frames — is
//     covered against the reactor in reactor_test.cpp.)

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/selector.hpp"
#include "serve/pipeline.hpp"
#include "serve/remote.hpp"
#include "serve/shard_router.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::chrono::milliseconds kRequestTimeout{120000};

std::vector<Tensor> make_inputs(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Tensor> inputs;
    inputs.reserve(count);
    for (std::size_t r = 0; r < count; ++r) {
        inputs.push_back(Tensor::randn(Shape{1 + static_cast<std::int64_t>(r % 3), harness::kIn},
                                       rng));
    }
    return inputs;
}

// ---------------------------------------------------------------- parity

TEST(Pipeline, WindowedShardRouterIsBitIdenticalToSequentialOracle) {
    constexpr std::size_t kBodies = 6;
    constexpr std::size_t kShards = 3;
    constexpr std::uint64_t kSeed = 6100;
    constexpr std::size_t kRequests = 6;

    // One in-thread reactor per shard, each serving its slice of its own
    // copy of the deployment's bodies (the oracle's copy is separate).
    harness::EnsembleParts host_parts = harness::make_linear_ensemble(kSeed, kBodies, 3);
    harness::set_eval(host_parts);
    std::vector<nn::Layer*> host_bodies;
    for (nn::LayerPtr& body : host_parts.bodies) {
        host_bodies.push_back(body.get());
    }
    const auto hosts =
        harness::serve_shard_plan(host_bodies, split::ShardPlan::blocks(kBodies, kShards));

    const core::Selector selector(kBodies, {0, 2, 5});
    const std::vector<Tensor> inputs = make_inputs(kRequests, 61);

    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        // Sequential in-proc oracle over the SAME deployment.
        harness::EnsembleParts oracle_parts = harness::make_linear_ensemble(kSeed, kBodies, 3);
        harness::set_eval(oracle_parts);
        std::vector<nn::Layer*> oracle_bodies;
        for (nn::LayerPtr& body : oracle_parts.bodies) {
            oracle_bodies.push_back(body.get());
        }
        split::InProcChannel uplink;
        split::InProcChannel downlink;
        split::CollaborativeSession oracle(
            *oracle_parts.head, oracle_bodies, *oracle_parts.tail,
            [&selector](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink, downlink, wire);
        std::vector<Tensor> expected;
        expected.reserve(inputs.size());
        for (const Tensor& input : inputs) {
            expected.push_back(oracle.infer(input));
        }

        harness::EnsembleParts client_parts = harness::make_linear_ensemble(kSeed, kBodies, 3);
        harness::set_eval(client_parts);
        std::vector<std::unique_ptr<split::Channel>> channels;
        for (std::size_t s = 0; s < kShards; ++s) {
            channels.push_back(split::tcp_connect("127.0.0.1", hosts[s]->port()));
        }
        ShardRouter router(std::move(channels), *client_parts.head, nullptr, *client_parts.tail,
                           selector, wire, std::chrono::seconds(30), /*max_inflight=*/4);
        router.set_recv_timeout(kRequestTimeout);
        EXPECT_EQ(router.window(), 4u);  // min(client 4, host default 8)

        // Submit the WHOLE batch before collecting anything: all window
        // slots stay occupied, so requests genuinely overlap on the wire.
        std::vector<std::future<InferenceResult>> futures;
        for (const Tensor& input : inputs) {
            futures.push_back(router.submit(input));
        }
        for (std::size_t r = 0; r < futures.size(); ++r) {
            const InferenceResult result = futures[r].get();
            EXPECT_EQ(result.request_id, r + 1) << "submission order lost";
            ASSERT_EQ(result.logits.shape(), expected[r].shape());
            // to_vector equality is bitwise for float payloads.
            EXPECT_EQ(result.logits.to_vector(), expected[r].to_vector())
                << split::wire_format_name(wire) << " request " << r;
        }
        EXPECT_EQ(router.stats().requests(), inputs.size());
        for (std::size_t s = 0; s < kShards; ++s) {
            EXPECT_EQ(router.shard_stats(s).requests(), inputs.size()) << "shard " << s;
            // Tags are protocol framing: per-shard billed bytes must still
            // equal the oracle's uplink exactly.
            EXPECT_EQ(router.shard_traffic(s).bytes, oracle.uplink_stats().bytes)
                << "shard " << s;
        }
        router.close();
    }
}

// ---------------------------------------------------------- out of order

/// v3 host half speaking through a raw channel: handshake, then a script.
struct ScriptedV3Host {
    static std::string handshake(std::size_t bodies, std::uint32_t max_inflight = 8) {
        HostInfo info;
        info.total_bodies = bodies;
        info.body_begin = 0;
        info.body_count = bodies;
        info.wire_mask = split::all_wire_formats_mask();
        info.max_inflight = max_inflight;
        return encode_handshake(info);
    }
};

TEST(Pipeline, CompletionIsOutOfOrderAndIdsNeverCross) {
    // A host that HOLDS request A and answers request B first: B's future
    // must resolve while A's is still pending, and each future must carry
    // its own request's feature map — the tags, not arrival order, decide.
    split::SplitModel client_model = harness::make_linear_split(77);
    client_model.set_training(false);
    split::SplitModel body_model = harness::make_linear_split(77);
    body_model.set_training(false);

    auto [client_end, host_end] = split::make_inproc_duplex();
    std::promise<void> b_seen;
    std::thread host([end = std::move(host_end), body = std::move(body_model.body),
                      &b_seen]() mutable {
        try {
            end->send(ScriptedV3Host::handshake(1));
            // Request A arrives first and is parked.
            std::string frame_a = end->recv();
            std::string frame_b = end->recv();
            const auto reply = [&](const std::string& frame) {
                std::string_view payload;
                const std::uint64_t id = parse_request_frame(frame, payload);
                const split::WireFormat wire = split::encoded_wire_format(payload);
                const Tensor features = split::decode_tensor(payload);
                unsigned char tag[kReplyTagBytes];
                encode_reply_tag(id, 0, tag);
                end->send_parts(
                    std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                    split::encode_tensor(body->forward(features), wire));
            };
            reply(frame_b);  // B completes FIRST
            b_seen.get_future().wait();
            reply(frame_a);
            (void)end->recv();  // hold until the client hangs up
        } catch (...) {
        }
    });

    RemoteSession session(std::move(client_end), *client_model.head, nullptr,
                          *client_model.tail, core::Selector(1, {0}), split::WireFormat::f32,
                          std::chrono::seconds(30), /*max_inflight=*/4);
    session.set_recv_timeout(kRequestTimeout);

    Rng rng(7);
    const Tensor input_a = Tensor::randn(Shape{1, harness::kIn}, rng);
    const Tensor input_b = Tensor::randn(Shape{1, harness::kIn}, rng);
    std::future<InferenceResult> future_a = session.submit(input_a);
    std::future<InferenceResult> future_b = session.submit(input_b);

    // B resolves while A is still parked at the host.
    const InferenceResult result_b = future_b.get();
    EXPECT_EQ(future_a.wait_for(std::chrono::milliseconds(0)), std::future_status::timeout)
        << "A completed although the host is still holding it";
    b_seen.set_value();
    const InferenceResult result_a = future_a.get();

    // Ids never cross: each result equals ITS OWN input driven through the
    // same layers sequentially.
    split::SplitModel oracle = harness::make_linear_split(77);
    oracle.set_training(false);
    const auto expect_logits = [&oracle](const Tensor& input) {
        return oracle.tail->forward(oracle.body->forward(oracle.head->forward(input)));
    };
    EXPECT_EQ(result_a.logits.to_vector(), expect_logits(input_a).to_vector());
    EXPECT_EQ(result_b.logits.to_vector(), expect_logits(input_b).to_vector());
    EXPECT_EQ(result_a.request_id, 1u);
    EXPECT_EQ(result_b.request_id, 2u);

    session.close();
    host.join();
}

// -------------------------------------------------------- hostile frames

TEST(Pipeline, UnknownReplyIdFaultsTyped) {
    split::SplitModel client_model = harness::make_linear_split(31);
    client_model.set_training(false);

    auto [client_end, host_end] = split::make_inproc_duplex();
    std::thread host([end = std::move(host_end)]() mutable {
        try {
            end->send(ScriptedV3Host::handshake(1));
            std::string frame = end->recv();
            std::string_view payload;
            const std::uint64_t id = parse_request_frame(frame, payload);
            unsigned char tag[kReplyTagBytes];
            encode_reply_tag(id + 999, 0, tag);  // no such request
            end->send_parts(std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                            payload);
            (void)end->recv();
        } catch (...) {
        }
    });

    RemoteSession session(std::move(client_end), *client_model.head, nullptr,
                          *client_model.tail, core::Selector(1, {0}), split::WireFormat::f32,
                          std::chrono::seconds(30));
    session.set_recv_timeout(kRequestTimeout);
    Rng rng(5);
    std::future<InferenceResult> future = session.submit(Tensor::randn(Shape{1, harness::kIn}, rng));
    try {
        (void)future.get();
        FAIL() << "unknown reply id did not fault the request";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
        EXPECT_NE(std::string(e.what()).find("unknown request id"), std::string::npos)
            << e.what();
    }
    session.close();
    host.join();
}

TEST(Pipeline, DuplicateReplyFaultsTyped) {
    // Two bodies, so the duplicate (id, body 0) frame lands while the
    // request is still pending — a strict repeat, not a stale id.
    constexpr std::size_t kBodies = 2;
    harness::EnsembleParts client_parts = harness::make_linear_ensemble(32, kBodies, 1);
    harness::set_eval(client_parts);

    auto [client_end, host_end] = split::make_inproc_duplex();
    std::thread host([end = std::move(host_end)]() mutable {
        try {
            end->send(ScriptedV3Host::handshake(kBodies));
            std::string frame = end->recv();
            std::string_view payload;
            const std::uint64_t id = parse_request_frame(frame, payload);
            unsigned char tag[kReplyTagBytes];
            encode_reply_tag(id, 0, tag);
            const std::string_view tag_view(reinterpret_cast<const char*>(tag), sizeof(tag));
            end->send_parts(tag_view, payload);
            end->send_parts(tag_view, payload);  // duplicate (id, body 0)
            (void)end->recv();
        } catch (...) {
        }
    });

    RemoteSession session(std::move(client_end), *client_parts.head, nullptr,
                          *client_parts.tail, core::Selector(kBodies, {0}),
                          split::WireFormat::f32, std::chrono::seconds(30));
    session.set_recv_timeout(kRequestTimeout);
    Rng rng(6);
    std::future<InferenceResult> future = session.submit(Tensor::randn(Shape{1, harness::kIn}, rng));
    try {
        (void)future.get();
        FAIL() << "duplicate reply did not fault the request";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
        EXPECT_NE(std::string(e.what()).find("duplicate reply"), std::string::npos) << e.what();
    }
    session.close();
    host.join();
}

}  // namespace
}  // namespace ens::serve
