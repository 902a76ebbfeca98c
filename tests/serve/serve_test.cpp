#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/ensembler.hpp"
#include "core/selector.hpp"
#include "data/synth_cifar10.hpp"
#include "defense/protected_model.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/resnet.hpp"
#include "nn/sequential.hpp"
#include "serve/service.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"
#include "split/split_model.hpp"

namespace ens::serve {
namespace {

constexpr std::int64_t kIn = 3;
constexpr std::int64_t kHidden = 4;
constexpr std::int64_t kClasses = 2;

/// Tiny linear split pipeline; same seed -> identical weights.
split::SplitModel make_linear_split(std::uint64_t seed) {
    Rng rng(seed);
    split::SplitModel model;
    model.head = std::make_unique<nn::Sequential>();
    model.head->emplace<nn::Linear>(kIn, kHidden, rng);
    model.body = std::make_unique<nn::Sequential>();
    model.body->emplace<nn::Linear>(kHidden, kHidden, rng);
    model.tail = std::make_unique<nn::Sequential>();
    model.tail->emplace<nn::Linear>(kHidden, kClasses, rng);
    return model;
}

constexpr std::size_t kBodies = 3;

/// Identity layer that throws on its `fail_at`-th forward (1-based; 0 =
/// never): an injected host-side body failure.
class FailingForward final : public nn::Layer {
public:
    explicit FailingForward(int fail_at) : fail_at_(fail_at) {}

    Tensor forward(const Tensor& input) override {
        if (++forwards_ == fail_at_) {
            throw std::runtime_error("injected body failure");
        }
        return input;
    }
    Tensor backward(const Tensor& grad_output) override { return grad_output; }
    std::string name() const override { return "FailingForward"; }

private:
    int fail_at_;
    int forwards_ = 0;
};

/// Three-body baseline ensemble; same seed -> identical weights. Body 1
/// ends in a FailingForward(fail_at).
defense::ProtectedModel make_three_body_baseline(std::uint64_t seed, int fail_at = 0) {
    Rng rng(seed);
    defense::ProtectedModel model;
    model.head = std::make_unique<nn::Sequential>();
    model.head->emplace<nn::Linear>(kIn, kHidden, rng);
    for (std::size_t k = 0; k < kBodies; ++k) {
        auto body = std::make_unique<nn::Sequential>();
        body->emplace<nn::Linear>(kHidden, kHidden, rng);
        if (k == 1) {
            body->emplace<FailingForward>(fail_at);
        }
        model.bodies.push_back(std::move(body));
    }
    model.tail = std::make_unique<nn::Sequential>();
    model.tail->emplace<nn::Linear>(kBodies * kHidden, kClasses, rng);
    return model;
}

/// Three-body baseline whose bodies are convolutions on the head's
/// feature map (Conv2d -> GlobalAvgPool), so a body's GEMM orientation
/// follows the request's spatial size: 2x2 maps (4 positions) run
/// transposed, 4x4 maps (16 = kNR positions) do not. Inputs are
/// [B, kConvIn, S, S] for any S.
constexpr std::int64_t kConvIn = 2;
constexpr std::int64_t kConvMid = 4;
constexpr std::int64_t kConvOut = 16;

defense::ProtectedModel make_conv_baseline(std::uint64_t seed) {
    Rng rng(seed);
    defense::ProtectedModel model;
    model.head = std::make_unique<nn::Sequential>();
    model.head->emplace<nn::Conv2d>(kConvIn, kConvMid, /*kernel=*/3, /*stride=*/1,
                                    /*padding=*/1, rng);
    for (std::size_t k = 0; k < kBodies; ++k) {
        auto body = std::make_unique<nn::Sequential>();
        body->emplace<nn::Conv2d>(kConvMid, kConvOut, /*kernel=*/3, /*stride=*/1,
                                  /*padding=*/1, rng);
        body->emplace<nn::GlobalAvgPool>();
        model.bodies.push_back(std::move(body));
    }
    model.tail = std::make_unique<nn::Sequential>();
    model.tail->emplace<nn::Linear>(kBodies * kConvOut, kClasses, rng);
    return model;
}

/// The sequential in-proc oracle over a three-body baseline: every body's
/// map back, combined with the all-bodies selector the service defaults to.
struct BaselineOracle {
    explicit BaselineOracle(std::uint64_t seed) : BaselineOracle(make_three_body_baseline(seed)) {}
    explicit BaselineOracle(defense::ProtectedModel baseline) : model(std::move(baseline)) {
        model.set_training(false);
        std::vector<nn::Layer*> bodies;
        for (const auto& body : model.bodies) {
            bodies.push_back(body.get());
        }
        session = std::make_unique<split::CollaborativeSession>(
            *model.head, std::move(bodies), *model.tail,
            [this](const std::vector<Tensor>& maps) { return selector.apply(maps); }, uplink,
            downlink);
    }

    defense::ProtectedModel model;
    core::Selector selector{kBodies, {0, 1, 2}};
    split::InProcChannel uplink;
    split::InProcChannel downlink;
    std::unique_ptr<split::CollaborativeSession> session;
};

bool same_bits(const Tensor& a, const Tensor& b) {
    if (a.shape() != b.shape()) {
        return false;
    }
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        if (a.at(i) != b.at(i)) {
            return false;
        }
    }
    return true;
}

class ServeWire : public ::testing::TestWithParam<split::WireFormat> {};

// The in-proc service must be an exact drop-in for the sequential
// transport: every request produces the same logits, message counts and
// byte counts as CollaborativeSession round trips, for every wire format.
TEST_P(ServeWire, MatchesSequentialSession) {
    const split::WireFormat wire = GetParam();

    split::SplitModel reference = make_linear_split(17);
    reference.set_training(false);
    split::InProcChannel uplink;
    split::InProcChannel downlink;
    split::CollaborativeSession sequential(*reference.head, {reference.body.get()},
                                           *reference.tail, split::single_body_combiner(),
                                           uplink, downlink, wire);

    InferenceService service = InferenceService::from_split_model(make_linear_split(17));
    auto session = service.create_session(SessionOptions{wire, std::nullopt});

    Rng rng(23);
    const std::vector<Tensor> inputs = {Tensor::randn(Shape{2, kIn}, rng),
                                        Tensor::randn(Shape{1, kIn}, rng),
                                        Tensor::randn(Shape{3, kIn}, rng)};

    std::vector<std::future<InferenceResult>> futures;
    for (const Tensor& x : inputs) {
        futures.push_back(session->submit(x));
    }

    for (std::size_t r = 0; r < inputs.size(); ++r) {
        const InferenceResult result = futures[r].get();
        const Tensor expected = sequential.infer(inputs[r]);
        ASSERT_EQ(result.logits.shape(), expected.shape());
        for (std::int64_t i = 0; i < expected.numel(); ++i) {
            EXPECT_FLOAT_EQ(result.logits.at(i), expected.at(i))
                << "request " << r << " logit " << i;
        }
    }

    // Byte parity with the sequential transport (same messages, same sizes).
    EXPECT_EQ(session->uplink_stats().bytes, sequential.uplink_stats().bytes);
    EXPECT_EQ(session->uplink_stats().messages, sequential.uplink_stats().messages);
    EXPECT_EQ(session->downlink_stats().bytes, sequential.downlink_stats().bytes);
    EXPECT_EQ(session->downlink_stats().messages, sequential.downlink_stats().messages);
}

INSTANTIATE_TEST_SUITE_P(Formats, ServeWire,
                         ::testing::Values(split::WireFormat::f32, split::WireFormat::q16,
                                           split::WireFormat::q8),
                         [](const ::testing::TestParamInfo<split::WireFormat>& info) {
                             return split::wire_format_name(info.param);
                         });

TEST(Serve, StandardCiParityWithDirectForward) {
    split::SplitModel reference = make_linear_split(29);
    reference.set_training(false);
    InferenceService service = InferenceService::from_split_model(make_linear_split(29));
    auto session = service.create_session();

    Rng rng(31);
    const Tensor x = Tensor::randn(Shape{5, kIn}, rng);
    const Tensor expected = reference.forward(x);
    const InferenceResult result = session->infer(x);
    ASSERT_EQ(result.logits.shape(), expected.shape());
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        EXPECT_FLOAT_EQ(result.logits.at(i), expected.at(i));
    }
    EXPECT_GE(result.total_ms, result.queue_ms);
}

TEST(Serve, BaselineEnsembleParityWithProtectedModel) {
    defense::ProtectedModel reference = make_three_body_baseline(41);
    Rng rng(43);
    const Tensor x = Tensor::randn(Shape{4, kIn}, rng);
    const Tensor expected = reference.predict(x);

    InferenceService service = InferenceService::from_baseline(make_three_body_baseline(41));
    EXPECT_EQ(service.body_count(), kBodies);
    const InferenceResult result = service.create_session()->infer(x);
    ASSERT_EQ(result.logits.shape(), expected.shape());
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        EXPECT_FLOAT_EQ(result.logits.at(i), expected.at(i));
    }
}

// Body 1 throws on the second request. The reactor drops the session's
// connection, so that request faults with the link's typed channel error;
// sibling bodies run concurrently, so whether they replied first is not
// fixed. The session reconnects on its next submit and serves the third
// request bit-identically, with fresh traffic counters.
TEST(Serve, FailedBodyDoesNotDesyncSession) {
    BaselineOracle oracle(97);
    // Body 1 fails on its second forward, i.e. the second request.
    InferenceService service = InferenceService::from_baseline(make_three_body_baseline(97, 2));
    auto session = service.create_session();

    Rng rng(101);
    const Tensor first = Tensor::randn(Shape{2, kIn}, rng);
    const Tensor second = Tensor::randn(Shape{2, kIn}, rng);
    const Tensor third = Tensor::randn(Shape{3, kIn}, rng);

    EXPECT_TRUE(same_bits(session->infer(first).logits, oracle.session->infer(first)));

    std::future<InferenceResult> failed = session->submit(second);
    try {
        (void)failed.get();
        ADD_FAILURE() << "the request whose body threw did not fault";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::channel_closed) << e.what();
    }

    const InferenceResult next = session->infer(third);
    EXPECT_TRUE(same_bits(next.logits, oracle.session->infer(third)));
    EXPECT_EQ(session->stats().requests(), 2u);
    // Counters restarted with the reconnect: only the third round trip.
    EXPECT_EQ(session->uplink_stats().messages, 1u);
    EXPECT_EQ(session->downlink_stats().messages, kBodies);
}

/// Meeting point for the bodies of one request: each RendezvousBody's
/// forward waits (bounded) until every party has entered.
struct Rendezvous {
    std::size_t parties = 0;
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t entered = 0;
    std::atomic<std::size_t> met{0};
};

/// Identity body that counts whether its forward met the other parties. A
/// host that runs one request's bodies one after another times out here:
/// the next body only starts after this forward returns.
class RendezvousBody final : public nn::Layer {
public:
    explicit RendezvousBody(std::shared_ptr<Rendezvous> meeting) : meeting_(std::move(meeting)) {}

    Tensor forward(const Tensor& input) override {
        std::unique_lock<std::mutex> lock(meeting_->mutex);
        ++meeting_->entered;
        meeting_->cv.notify_all();
        if (meeting_->cv.wait_for(lock, std::chrono::seconds(2), [this] {
                return meeting_->entered >= meeting_->parties;
            })) {
            ++meeting_->met;
        }
        return input;
    }
    Tensor backward(const Tensor& grad_output) override { return grad_output; }
    std::string name() const override { return "RendezvousBody"; }

private:
    std::shared_ptr<Rendezvous> meeting_;
};

// One in-proc request's bodies run at the same time on the service's
// reactor workers: all three bodies meet inside their forwards.
TEST(Serve, OneRequestsBodiesRunConcurrently) {
    auto meeting = std::make_shared<Rendezvous>();
    meeting->parties = kBodies;
    defense::ProtectedModel model = make_three_body_baseline(109);
    for (auto& body : model.bodies) {
        body->emplace<RendezvousBody>(meeting);
    }
    BaselineOracle oracle(109);
    InferenceService service = InferenceService::from_baseline(std::move(model));

    Rng rng(113);
    const Tensor x = Tensor::randn(Shape{2, kIn}, rng);
    EXPECT_TRUE(same_bits(service.create_session()->infer(x).logits, oracle.session->infer(x)));
    EXPECT_EQ(meeting->met.load(), kBodies) << "bodies of one request ran one by one";
}

// Threads sharing one session submit concurrently through its one
// connection: every result is its own input's oracle logits, and no frame
// is lost or read twice.
TEST(Serve, SharedSessionAcrossThreadsMatchesOracle) {
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRequestsPerThread = 8;

    BaselineOracle oracle(103);
    std::vector<std::vector<Tensor>> inputs(kThreads);
    std::vector<std::vector<Tensor>> expected(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        Rng rng(200 + t);
        for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
            const auto images = static_cast<std::int64_t>(1 + r % 3);
            inputs[t].push_back(Tensor::randn(Shape{images, kIn}, rng));
            expected[t].push_back(oracle.session->infer(inputs[t].back()));
        }
    }

    InferenceService service = InferenceService::from_baseline(make_three_body_baseline(103));
    auto session = service.create_session();
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
                try {
                    if (!same_bits(session->infer(inputs[t][r]).logits, expected[t][r])) {
                        ++mismatches;
                    }
                } catch (const std::exception&) {
                    ++mismatches;  // e.g. a reply frame taken by the wrong thread
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(session->stats().requests(), kThreads * kRequestsPerThread);
    EXPECT_EQ(session->uplink_stats().messages, kThreads * kRequestsPerThread);
    EXPECT_EQ(session->downlink_stats().messages,
              kThreads * kRequestsPerThread * service.body_count());
}

// Many threads submit through one service whose bodies are convolutions,
// alternating 2x2 and 4x4 inputs. Each body's first eval forward packs its
// weight and every geometry flip repacks it in place, inside a served
// forward on whichever reactor worker runs it. Every result must still
// be its own input's oracle logits (and, under ThreadSanitizer, race-free).
TEST(Serve, ConcurrentSmallSpatialConvBodiesMatchOracle) {
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRequestsPerThread = 6;

    BaselineOracle oracle(make_conv_baseline(107));
    std::vector<std::vector<Tensor>> inputs(kThreads);
    std::vector<std::vector<Tensor>> expected(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        Rng rng(300 + t);
        for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
            const std::int64_t side = (t + r) % 2 == 0 ? 2 : 4;
            inputs[t].push_back(Tensor::randn(Shape{1 + static_cast<std::int64_t>(r % 2),
                                                    kConvIn, side, side},
                                              rng));
            expected[t].push_back(oracle.session->infer(inputs[t].back()));
        }
    }

    InferenceService service = InferenceService::from_baseline(make_conv_baseline(107));
    std::vector<std::shared_ptr<ClientSession>> sessions;
    for (std::size_t t = 0; t < kThreads; ++t) {
        sessions.push_back(service.create_session());
    }
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
                try {
                    if (!same_bits(sessions[t]->infer(inputs[t][r]).logits, expected[t][r])) {
                        ++mismatches;
                    }
                } catch (const std::exception&) {
                    ++mismatches;
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(Serve, ConcurrentSubmitFromManyThreadsAndSessions) {
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRequestsPerThread = 8;

    InferenceService service = InferenceService::from_split_model(make_linear_split(53));

    std::vector<std::shared_ptr<ClientSession>> sessions;
    for (std::size_t t = 0; t < kThreads; ++t) {
        sessions.push_back(service.create_session());
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(100 + t);
            for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
                const Tensor x = Tensor::randn(Shape{1, kIn}, rng);
                const InferenceResult result = sessions[t]->infer(x);
                if (result.logits.shape() != (Shape{1, kClasses})) {
                    ++failures;
                }
                for (std::int64_t i = 0; i < result.logits.numel(); ++i) {
                    if (!std::isfinite(result.logits.at(i))) {
                        ++failures;
                    }
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(failures.load(), 0);

    // Per-session stats isolation: every session saw exactly its own work.
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(sessions[t]->stats().requests(), kRequestsPerThread);
        EXPECT_EQ(sessions[t]->stats().images(), kRequestsPerThread);
        EXPECT_EQ(sessions[t]->uplink_stats().messages, kRequestsPerThread);
        EXPECT_EQ(sessions[t]->downlink_stats().messages,
                  kRequestsPerThread * service.body_count());
    }
}

TEST(Serve, PerSessionStatsAndWireFormatIsolation) {
    InferenceService service = InferenceService::from_split_model(make_linear_split(61));
    auto lossless = service.create_session(SessionOptions{split::WireFormat::f32, std::nullopt});
    auto quantized = service.create_session(SessionOptions{split::WireFormat::q8, std::nullopt});
    EXPECT_EQ(service.session_count(), 2u);

    Rng rng(67);
    const Tensor x = Tensor::randn(Shape{2, kIn}, rng);
    (void)lossless->infer(x);
    (void)lossless->infer(x);
    (void)quantized->infer(x);

    EXPECT_EQ(lossless->stats().requests(), 2u);
    EXPECT_EQ(quantized->stats().requests(), 1u);
    // q8 uplink payloads are ~4x smaller than f32 for the same feature map.
    EXPECT_LT(quantized->uplink_stats().bytes, lossless->uplink_stats().bytes / 2);

    const LatencySummary latency = lossless->stats().latency();
    EXPECT_EQ(latency.count, 2u);
    EXPECT_GT(latency.mean_ms, 0.0);
    EXPECT_LE(latency.p50_ms, latency.max_ms);

    lossless->reset_stats();
    EXPECT_EQ(lossless->stats().requests(), 0u);
    EXPECT_EQ(lossless->uplink_stats().bytes, 0u);
    EXPECT_EQ(quantized->stats().requests(), 1u);  // untouched
}

TEST(Serve, SingleImagePromotedToBatchOfOne) {
    nn::ResNetConfig arch;
    arch.base_width = 4;
    arch.image_size = 16;
    arch.num_classes = 5;
    Rng rng(71);
    InferenceService service =
        InferenceService::from_split_model(split::build_split_resnet18(arch, rng));
    Rng data_rng(73);
    const Tensor image = Tensor::uniform(Shape{3, 16, 16}, data_rng, 0.0f, 1.0f);
    const InferenceResult result = service.create_session()->infer(image);
    EXPECT_EQ(result.logits.shape(), (Shape{1, 5}));
}

TEST(Serve, SubmitRejectsBadInput) {
    InferenceService service = InferenceService::from_split_model(make_linear_split(79));
    auto session = service.create_session();
    EXPECT_THROW((void)session->submit(Tensor{}), std::invalid_argument);
    Rng rng(83);
    // Wrong feature width faults the head forward on the submitting thread.
    EXPECT_ANY_THROW((void)session->infer(Tensor::randn(Shape{2, kIn + 1}, rng)));
    // The service survives and keeps serving.
    const InferenceResult result = session->infer(Tensor::randn(Shape{2, kIn}, rng));
    EXPECT_EQ(result.logits.shape(), (Shape{2, kClasses}));
}

TEST(Serve, SessionSelectorMustCoverBodies) {
    InferenceService service = InferenceService::from_split_model(make_linear_split(89));
    SessionOptions options;
    options.selector = core::Selector(2, {0});
    EXPECT_THROW((void)service.create_session(options), std::invalid_argument);
}

// Ensembler end-to-end: the service serves the stage-3 client bundle +
// secret selector over all N deployed bodies, reproducing
// Ensembler::predict exactly (N = 2 at smoke scale to keep CI time sane).
TEST(Serve, EnsemblerParityWithPredict) {
    const data::SynthCifar10 train_set(64, 1, 16);
    nn::ResNetConfig arch;
    arch.base_width = 4;
    arch.image_size = 16;
    arch.num_classes = 10;

    core::EnsemblerConfig config;
    config.num_networks = 2;
    config.num_selected = 1;
    config.stage1_options.epochs = 1;
    config.stage1_options.batch_size = 32;
    config.stage3_options.epochs = 1;
    config.stage3_options.batch_size = 32;
    config.seed = 7;

    core::Ensembler ensembler(arch, config);
    ensembler.fit(train_set);

    const data::SynthCifar10 test_set(8, 2, 16);
    const data::Batch batch = data::materialize(test_set, 0, 8);
    const Tensor expected = ensembler.predict(batch.images);

    InferenceService service = InferenceService::from_ensembler(ensembler);
    EXPECT_EQ(service.body_count(), config.num_networks);
    auto session = service.create_session();
    EXPECT_EQ(session->selector().indices(), ensembler.selector().indices());

    const InferenceResult result = session->infer(batch.images);
    ASSERT_EQ(result.logits.shape(), expected.shape());
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        EXPECT_NEAR(result.logits.at(i), expected.at(i), 1e-5f) << "logit " << i;
    }
    // N messages down per request: the Ensembler downlink-growth signature.
    EXPECT_EQ(session->downlink_stats().messages, config.num_networks);
    EXPECT_EQ(session->uplink_stats().messages, 1u);
}

}  // namespace
}  // namespace ens::serve
