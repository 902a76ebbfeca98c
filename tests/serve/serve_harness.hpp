#pragma once
// Shared serving fixtures for the serve tests and the serving benches:
//   - ReactorFixture: an in-process ReactorHost behind a loopback listener,
//     its event loop on a background thread, drained and joined on
//     destruction; serve_shard_plan starts one per shard of a ShardPlan.
//   - ForkedDaemon / spawn_body_host: a body host in ANOTHER process behind
//     a real TCP listener (served by a ReactorHost in the child); hands the
//     parent its port and guarantees cleanup (SIGKILL + reap) even when a
//     gtest ASSERT unwinds the test early. Every test that needs "a body
//     host in another process" goes through ForkedDaemon instead of
//     hand-rolling fork()/pipe()/waitpid().
//
// Fork-safety: the child calls ThreadPool::mark_forked_child() FIRST, so a
// global pool lazily created by an earlier test in the same binary (whose
// worker threads do not survive fork) degrades to inline parallel_for
// execution instead of deadlocking. Children exit via _exit() only: gtest
// teardown and static destructors (including inherited pools) must not run
// twice. Inline execution is bit-identical to pooled execution — the
// tensor kernels chunk over independent output rows/batch elements — which
// is what lets the parity tests compare child-computed bytes against the
// parent's oracle bit for bit.
//
// Also hosts the tiny deterministic split/ensemble model builders the
// multi-process tests share: same seed -> identical weights, so parent and
// child construct bit-identical halves of a deployment without shipping a
// checkpoint.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/noise.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "serve/deployment.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "split/multiparty.hpp"
#include "split/split_model.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve::harness {

/// An in-process reactor on an ephemeral loopback listener, its event loop
/// on a background thread. shutdown-and-join on destruction, so an ASSERT
/// unwind (or a bench's throw) cannot leak the loop.
class ReactorFixture {
public:
    explicit ReactorFixture(std::shared_ptr<DeploymentManager> manager, ReactorConfig config = {})
        : reactor_(std::move(manager), config),
          listener_(0),
          thread_([this] { reactor_.run(listener_); }) {}

    /// Serves one fixed generation of `host`.
    explicit ReactorFixture(std::shared_ptr<BodyHost> host, ReactorConfig config = {})
        : ReactorFixture(std::make_shared<DeploymentManager>(std::move(host)), config) {}

    ~ReactorFixture() { stop(); }

    ReactorFixture(const ReactorFixture&) = delete;
    ReactorFixture& operator=(const ReactorFixture&) = delete;

    void stop() {
        if (thread_.joinable()) {
            reactor_.shutdown();
            thread_.join();
        }
    }

    std::uint16_t port() const { return listener_.port(); }
    ReactorHost& reactor() { return reactor_; }

private:
    ReactorHost reactor_;
    split::ChannelListener listener_;
    std::thread thread_;
};

/// One reactor per shard of `plan` (contiguous slices, as
/// ShardPlan::blocks makes), each hosting its slice of `bodies` — the
/// deployment's non-owned, eval-mode bodies in global order.
inline std::vector<std::unique_ptr<ReactorFixture>> serve_shard_plan(
    const std::vector<nn::Layer*>& bodies, const split::ShardPlan& plan,
    ReactorConfig config = {}) {
    std::vector<std::unique_ptr<ReactorFixture>> hosts;
    for (const std::vector<std::size_t>& shard : plan.server_bodies) {
        std::vector<nn::Layer*> held;
        for (const std::size_t body : shard) {
            held.push_back(bodies[body]);
        }
        auto host = std::make_shared<BodyHost>(std::move(held));
        host->set_shard(shard.front(), bodies.size());
        hosts.push_back(std::make_unique<ReactorFixture>(std::move(host), config));
    }
    return hosts;
}

/// One forked daemon process owning one ChannelListener. The child main
/// runs entirely in the child (build models there, never before the fork in
/// the parent) and the daemon dies with the object, so an assert-failure
/// that unwinds the test cannot leak a child process or a bound port.
class ForkedDaemon {
public:
    using ChildMain = std::function<void(split::ChannelListener&)>;

    /// Forks. The child opens a listener — ephemeral by default, or bound
    /// to `fixed_port` when nonzero (how a replacement daemon reclaims a
    /// killed replica's address so the client's background redialer can
    /// find it) — reports its port through a pipe, runs
    /// `child_main(listener)` and exits 0 (1 on any exception). The parent
    /// blocks only for the port hand-off; a spawn failure leaves
    /// port() == 0 for the test to assert on.
    explicit ForkedDaemon(const ChildMain& child_main, std::uint16_t fixed_port = 0) {
        int port_pipe[2] = {-1, -1};
        if (::pipe(port_pipe) != 0) {
            return;
        }
        const pid_t child = ::fork();
        if (child == -1) {
            ::close(port_pipe[0]);
            ::close(port_pipe[1]);
            return;
        }
        if (child == 0) {
            ::close(port_pipe[0]);
            ThreadPool::mark_forked_child();
            int code = 0;
            try {
                split::ChannelListener listener(fixed_port);
                const std::uint16_t port = listener.port();
                if (::write(port_pipe[1], &port, sizeof(port)) !=
                    static_cast<ssize_t>(sizeof(port))) {
                    ::_exit(2);
                }
                ::close(port_pipe[1]);
                child_main(listener);
            } catch (...) {
                code = 1;
            }
            ::_exit(code);
        }
        pid_ = child;
        ::close(port_pipe[1]);
        std::uint16_t port = 0;
        if (::read(port_pipe[0], &port, sizeof(port)) == static_cast<ssize_t>(sizeof(port))) {
            port_ = port;
        }
        ::close(port_pipe[0]);
    }

    ForkedDaemon(const ForkedDaemon&) = delete;
    ForkedDaemon& operator=(const ForkedDaemon&) = delete;

    ForkedDaemon(ForkedDaemon&& other) noexcept
        : pid_(std::exchange(other.pid_, -1)), port_(std::exchange(other.port_, 0)) {}

    ForkedDaemon& operator=(ForkedDaemon&& other) noexcept {
        if (this != &other) {
            terminate();
            pid_ = std::exchange(other.pid_, -1);
            port_ = std::exchange(other.port_, 0);
        }
        return *this;
    }

    ~ForkedDaemon() { terminate(); }

    /// The child's listening port (0 when the spawn failed).
    std::uint16_t port() const { return port_; }

    pid_t pid() const { return pid_; }

    /// Blocks until the child exits on its own; returns its exit code, or
    /// -1 when it was signaled / already reaped / never spawned.
    int wait_exit_code() {
        if (pid_ == -1) {
            return -1;
        }
        int status = 0;
        const pid_t reaped = ::waitpid(pid_, &status, 0);
        pid_ = -1;
        if (reaped == -1 || !WIFEXITED(status)) {
            return -1;
        }
        return WEXITSTATUS(status);
    }

    /// SIGKILLs and reaps the child — the "shard dies mid-request" lever of
    /// the failure tests. Idempotent.
    void kill_now() { terminate(); }

    /// SIGSTOPs the child — a wedged-but-alive replica: the TCP connection
    /// stays open yet nothing answers, which is how recv timeouts (not
    /// connection resets) get exercised. Pair with resume().
    void stop_now() {
        if (pid_ != -1) {
            ::kill(pid_, SIGSTOP);
        }
    }

    /// SIGCONTs a stop_now()-frozen child.
    void resume() {
        if (pid_ != -1) {
            ::kill(pid_, SIGCONT);
        }
    }

private:
    void terminate() {
        if (pid_ == -1) {
            return;
        }
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/// Spawns a daemon whose child builds a BodyHost via `make_host` (invoked
/// in the child; by pointer — BodyHost owns mutexes and cannot move) and
/// serves it with a ReactorHost until `connections` connections have been
/// accepted and all of them closed; it then drains and exits 0. The
/// building block for K-shard deployments: call it K times with per-shard
/// factories.
inline ForkedDaemon spawn_body_host(std::function<std::unique_ptr<BodyHost>()> make_host,
                                    int connections, std::uint16_t fixed_port = 0) {
    return ForkedDaemon(
        [make_host = std::move(make_host), connections](split::ChannelListener& listener) {
            ReactorConfig config;
            config.drain_grace = std::chrono::milliseconds(20);
            ReactorHost reactor(std::make_shared<DeploymentManager>(make_host()), config);
            std::thread loop([&] { reactor.run(listener); });
            // Accepted first, then closed: a connection bumps
            // connections_held before connections_total, so once the total
            // is reached every counted connection is already held.
            const auto total = static_cast<std::uint64_t>(connections);
            while (reactor.gauges().connections_total < total ||
                   reactor.gauges().connections_held != 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            reactor.shutdown();
            loop.join();
        },
        fixed_port);
}

// ---------------------------------------------------------------- models
// Tiny linear geometries, deterministic per seed. Small on purpose: these
// tests prove protocol and routing behavior, not model quality.

constexpr std::int64_t kIn = 3;
constexpr std::int64_t kHidden = 4;
constexpr std::int64_t kClasses = 2;

/// Tiny linear split pipeline; same seed -> identical weights, so parent
/// and child build bit-identical halves of the deployment.
inline split::SplitModel make_linear_split(std::uint64_t seed) {
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

/// N-body ensemble geometry: shared head, per-body nets, a tail sized for
/// the P-map selector concat. Deterministic per-part seeds, so a shard
/// child building bodies [i, j) gets the same weights the parent's oracle
/// holds at those indices.
struct EnsembleParts {
    std::unique_ptr<nn::Sequential> head;
    std::vector<nn::LayerPtr> bodies;
    std::unique_ptr<nn::Sequential> tail;
};

inline EnsembleParts make_linear_ensemble(std::uint64_t seed, std::size_t num_bodies,
                                          std::size_t num_selected) {
    EnsembleParts parts;
    Rng head_rng(seed);
    parts.head = std::make_unique<nn::Sequential>();
    parts.head->emplace<nn::Linear>(kIn, kHidden, head_rng);
    for (std::size_t k = 0; k < num_bodies; ++k) {
        Rng body_rng(seed + 1 + k);
        auto body = std::make_unique<nn::Sequential>();
        body->emplace<nn::Linear>(kHidden, kHidden, body_rng);
        parts.bodies.push_back(std::move(body));
    }
    Rng tail_rng(seed + 100);
    parts.tail = std::make_unique<nn::Sequential>();
    parts.tail->emplace<nn::Linear>(static_cast<std::int64_t>(num_selected) * kHidden, kClasses,
                                    tail_rng);
    return parts;
}

inline void set_eval(EnsembleParts& parts) {
    parts.head->set_training(false);
    for (nn::LayerPtr& body : parts.bodies) {
        body->set_training(false);
    }
    parts.tail->set_training(false);
}

/// The bodies of `make_linear_ensemble(seed, num_bodies, ...)` restricted
/// to global indices [begin, begin + count) — what one shard child hosts.
inline std::vector<nn::LayerPtr> make_shard_bodies(std::uint64_t seed, std::size_t num_bodies,
                                                   std::size_t begin, std::size_t count) {
    EnsembleParts parts = make_linear_ensemble(seed, num_bodies, /*num_selected=*/1);
    std::vector<nn::LayerPtr> shard;
    shard.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        shard.push_back(std::move(parts.bodies.at(begin + k)));
    }
    return shard;
}

// ----------------------------------------------------- conv + BN ensemble
// A tiny convolutional ensemble with BatchNorm on BOTH sides of the split
// and a fixed split-point noise mask — the state that ONLY full-fidelity
// checkpoints (nn::save_state: parameters + running statistics + noise
// buffer) carry across a process boundary. The bundle restart-parity tests
// use it so a restored daemon that silently dropped any of that state
// would diverge from the oracle bit-for-bit. warm_batchnorm() stands in
// for training: it drives the running statistics away from their init so
// eval-mode outputs actually depend on checkpointed buffer state.

constexpr std::int64_t kConvImage = 4;     // input images are [1, 4, 4]
constexpr std::int64_t kConvHeadCh = 3;    // split-point feature channels
constexpr std::int64_t kConvBodyCh = 4;    // per-body feature width after pool

struct ConvEnsembleParts {
    std::unique_ptr<nn::Sequential> head;   // Conv -> BN -> ReLU
    std::unique_ptr<nn::FixedNoise> noise;  // fixed split-point mask
    std::vector<nn::LayerPtr> bodies;       // Conv -> BN -> ReLU -> GAP, [B, kConvBodyCh]
    std::unique_ptr<nn::Sequential> tail;   // Linear(P * kConvBodyCh -> kClasses)
};

inline nn::LayerPtr make_conv_body(std::uint64_t seed, std::size_t body_index) {
    Rng rng(seed + 1 + body_index);
    auto body = std::make_unique<nn::Sequential>();
    body->emplace<nn::Conv2d>(kConvHeadCh, kConvBodyCh, /*kernel=*/3, /*stride=*/1,
                              /*padding=*/1, rng);
    body->emplace<nn::BatchNorm2d>(kConvBodyCh);
    body->emplace<nn::ReLU>();
    body->emplace<nn::GlobalAvgPool>();
    return body;
}

inline ConvEnsembleParts make_conv_ensemble(std::uint64_t seed, std::size_t num_bodies,
                                            std::size_t num_selected) {
    ConvEnsembleParts parts;
    Rng head_rng(seed);
    parts.head = std::make_unique<nn::Sequential>();
    parts.head->emplace<nn::Conv2d>(1, kConvHeadCh, /*kernel=*/3, /*stride=*/1, /*padding=*/1,
                                    head_rng);
    parts.head->emplace<nn::BatchNorm2d>(kConvHeadCh);
    parts.head->emplace<nn::ReLU>();
    Rng noise_rng(seed + 50);
    parts.noise = std::make_unique<nn::FixedNoise>(Shape{kConvHeadCh, kConvImage, kConvImage},
                                                   0.1f, noise_rng);
    for (std::size_t k = 0; k < num_bodies; ++k) {
        parts.bodies.push_back(make_conv_body(seed, k));
    }
    Rng tail_rng(seed + 100);
    parts.tail = std::make_unique<nn::Sequential>();
    parts.tail->emplace<nn::Linear>(static_cast<std::int64_t>(num_selected) * kConvBodyCh,
                                    kClasses, tail_rng);
    return parts;
}

/// Drives the BatchNorm running statistics of every part away from their
/// initialization (training-mode forwards, the "training" of these tiny
/// deployments). Must run BEFORE set_eval/save.
inline void warm_batchnorm(ConvEnsembleParts& parts, std::uint64_t data_seed,
                           int batches = 3) {
    Rng rng(data_seed);
    for (int i = 0; i < batches; ++i) {
        const Tensor images = Tensor::randn(Shape{5, 1, kConvImage, kConvImage}, rng);
        const Tensor features = parts.noise->forward(parts.head->forward(images));
        for (nn::LayerPtr& body : parts.bodies) {
            body->forward(features);
        }
    }
}

inline void set_eval(ConvEnsembleParts& parts) {
    parts.head->set_training(false);
    parts.noise->set_training(false);
    for (nn::LayerPtr& body : parts.bodies) {
        body->set_training(false);
    }
    parts.tail->set_training(false);
}

/// Non-owning forward-only chain — lets an oracle treat head + separate
/// noise as the single "client head" a CollaborativeSession expects.
class ChainLayer final : public nn::Layer {
public:
    explicit ChainLayer(std::vector<nn::Layer*> parts) : parts_(std::move(parts)) {}

    Tensor forward(const Tensor& input) override {
        Tensor value = input;
        for (nn::Layer* part : parts_) {
            value = part->forward(value);
        }
        return value;
    }

    Tensor backward(const Tensor&) override {
        throw std::logic_error("ChainLayer is forward-only (oracle helper)");
    }

    std::string name() const override { return "Chain"; }

private:
    std::vector<nn::Layer*> parts_;
};

}  // namespace ens::serve::harness
