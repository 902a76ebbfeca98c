// Optimized-boot parity across processes: a forked body-host daemon booted
// with the graph compiler on must serve the same answers, within the
// per-wire-format tolerance of optimize_harness.hpp, as a forked daemon
// booted from the same bundle without it. The one optimized-boot case that
// forks, kept apart from the in-process suites of optimize_test so those
// run under TSan.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "core/selector.hpp"
#include "optimize_harness.hpp"
#include "serve/bundle.hpp"
#include "serve/remote.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

namespace fs = std::filesystem;
using namespace harness;

constexpr std::chrono::milliseconds kRequestTimeout{120000};

TEST(OptimizedBoot, ForkedOptimizedDaemonMatchesUnoptimizedDaemon) {
    const std::string dir = bundle_dir_for("optimize_forked");
    const core::Selector selector(3, {1, 2});
    write_conv_bundle(dir, /*num_bodies=*/3, selector);

    // Client half off disk, then the secret file goes away before either
    // daemon forks — the optimize flag changes nothing about what a body
    // host may read.
    ClientArtifacts client = load_bundle_client(dir, 3);
    ASSERT_NE(client.noise, nullptr);
    ASSERT_TRUE(fs::remove(fs::path(dir) / kClientFileName));

    constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
    ForkedDaemon plain_daemon = spawn_body_host(
        [dir] { return BodyHost::from_bundle(dir); }, /*connections=*/2);
    ForkedDaemon optimized_daemon = spawn_body_host(
        [dir] { return BodyHost::from_bundle(dir, 0, kNpos, /*optimize=*/true); },
        /*connections=*/2);
    ASSERT_GT(plain_daemon.port(), 0);
    ASSERT_GT(optimized_daemon.port(), 0);

    const std::vector<Tensor> inputs = make_conv_inputs(42);
    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        RemoteSession plain_session(split::tcp_connect("127.0.0.1", plain_daemon.port()),
                                    *client.head, client.noise.get(), *client.tail,
                                    client.selector, wire, std::chrono::seconds(30),
                                    /*max_inflight=*/4);
        RemoteSession optimized_session(
            split::tcp_connect("127.0.0.1", optimized_daemon.port()), *client.head,
            client.noise.get(), *client.tail, client.selector, wire,
            std::chrono::seconds(30), /*max_inflight=*/4);
        plain_session.set_recv_timeout(kRequestTimeout);
        optimized_session.set_recv_timeout(kRequestTimeout);
        ASSERT_EQ(optimized_session.body_count(), 3u);

        for (std::size_t r = 0; r < inputs.size(); ++r) {
            const Tensor expected = plain_session.infer(inputs[r]).logits;
            const Tensor actual = optimized_session.infer(inputs[r]).logits;
            expect_near(actual, expected, wire_tolerance(wire),
                        split::wire_format_name(wire));
        }
        plain_session.close();
        optimized_session.close();
    }
    EXPECT_EQ(plain_daemon.wait_exit_code(), 0);
    EXPECT_EQ(optimized_daemon.wait_exit_code(), 0);
}

}  // namespace
}  // namespace ens::serve
