// Reactor graceful shutdown: a forked reactor daemon receiving SIGTERM
// with a window of requests in flight answers every one of them (no torn
// replies), then exits 0. The one reactor case that forks, kept apart
// from the in-thread suites of reactor_test so those run under TSan.
//
// Bit-parity oracle: the same in-proc sequential CollaborativeSession the
// other serve suites compare against.

#include <gtest/gtest.h>

#include <csignal>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "reactor_harness.hpp"
#include "serve/deployment.hpp"
#include "serve/reactor.hpp"

namespace ens::serve {
namespace {

using namespace harness;

TEST(ReactorShutdown, SigtermDrainsInFlightWindowsAndExitsZero) {
    // Forked daemon: reactor + SignalSet, the exact serve_daemon layout.
    // The parent SIGTERMs it with a full request window outstanding; every
    // future must still resolve (bit-matched), and the child must exit 0
    // having drained — not died mid-frame.
    ForkedDaemon daemon([](split::ChannelListener& listener) {
        SignalSet signals{SIGTERM};  // before ANY thread spawns
        auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
        ReactorConfig config;
        config.worker_threads = 2;
        ReactorHost reactor(manager, config);
        std::thread loop([&] { reactor.run(listener); });
        (void)signals.wait();
        reactor.shutdown();
        loop.join();
        if (reactor.gauges().active_requests != 0) {
            ::_exit(3);  // drain left work behind
        }
    });
    ASSERT_GT(daemon.port(), 0);

    ClientHalf client(kSeed);
    auto session = client.connect(daemon.port(), split::WireFormat::f32,
                                  /*max_inflight=*/4);
    ASSERT_EQ(session->deployment_version(), 1u);

    Oracle oracle(kSeed, kSeed, split::WireFormat::f32);
    Rng data_rng(77);
    std::vector<Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < 4; ++r) {
        inputs.push_back(Tensor::randn(Shape{2, kIn}, data_rng));
        futures.push_back(session->submit(inputs.back()));
    }
    // SIGTERM with the whole window in flight.
    ASSERT_EQ(::kill(daemon.pid(), SIGTERM), 0);

    for (std::size_t r = 0; r < futures.size(); ++r) {
        std::optional<InferenceResult> result;
        try {
            result.emplace(futures[r].get());
        } catch (const std::exception& e) {
            FAIL() << "request " << r << " torn by the shutdown: " << e.what();
        }
        const Tensor expected = oracle.session->infer(inputs[r]);
        EXPECT_EQ(result->logits.to_vector(), expected.to_vector()) << "request " << r;
    }
    session->close();
    EXPECT_EQ(daemon.wait_exit_code(), 0) << "daemon did not exit cleanly after the drain";
}

}  // namespace
}  // namespace ens::serve
