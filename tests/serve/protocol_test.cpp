// Negative-path protocol tests: every way a peer can speak the serve
// protocol wrongly — bad handshake magic, wrong version, a shard host where
// a whole-deployment host is required, an unsupported wire format, shards
// whose body ranges overlap / leave gaps / disagree on N, and truncated or
// corrupt feature frames — must produce a typed ens::Error{protocol_error}
// immediately: no hangs, no crashes, no unbounded allocations from
// attacker-controlled shape fields. All in-process (server threads over
// loopback TCP): these are protocol tests, not process-management tests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/stopwatch.hpp"
#include "core/selector.hpp"
#include "serve/protocol.hpp"
#include "serve/remote.hpp"
#include "serve/shard_router.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::chrono::milliseconds kShortTimeout{5000};

/// Arbitrary v4 handshake bytes (including invalid ones the public encoder
/// refuses to produce).
std::string raw_handshake(std::uint32_t magic, std::uint32_t version, std::uint32_t total,
                          std::uint32_t begin, std::uint32_t count, std::uint32_t mask,
                          std::uint32_t max_inflight = 8,
                          std::uint32_t deployment_version = 0) {
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    writer.write_u32(magic);
    writer.write_u32(version);
    writer.write_u32(total);
    writer.write_u32(begin);
    writer.write_u32(count);
    writer.write_u32(mask);
    writer.write_u32(max_inflight);
    writer.write_u32(deployment_version);
    return out.str();
}

/// What a protocol-v2 (PR 3) host put on the wire: six fields, no
/// max_inflight. Used to prove the v2 <-> v4 version mismatch fails BY
/// NAME, not as a bare length error.
std::string raw_v2_handshake(std::uint32_t total, std::uint32_t begin, std::uint32_t count,
                             std::uint32_t mask) {
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    writer.write_u32(kHandshakeMagic);
    writer.write_u32(2);  // protocol v2
    writer.write_u32(total);
    writer.write_u32(begin);
    writer.write_u32(count);
    writer.write_u32(mask);
    return out.str();
}

/// One accept + scripted interaction on a background thread. The script
/// runs until it returns or the client disconnects; every transport error
/// is swallowed (the client side is what the test asserts on).
class ScriptedHost {
public:
    explicit ScriptedHost(std::function<void(split::Channel&)> script)
        : thread_([this, script = std::move(script)] {
              try {
                  auto channel = listener_.accept();
                  script(*channel);
                  // Hold the connection until the peer hangs up so the
                  // client, not a racing close, decides when bytes stop.
                  channel->set_recv_timeout(std::chrono::seconds(30));
                  (void)channel->recv();
              } catch (...) {
              }
          }) {}

    ~ScriptedHost() {
        listener_.close();
        thread_.join();
    }

    std::uint16_t port() const { return listener_.port(); }

private:
    split::ChannelListener listener_{0};
    std::thread thread_;
};

/// Client bundle for session construction attempts.
struct ClientParts {
    split::SplitModel model;
    core::Selector selector{1, {0}};
};

ClientParts make_client() {
    ClientParts parts{harness::make_linear_split(11), core::Selector(1, {0})};
    parts.model.set_training(false);
    return parts;
}

void expect_protocol_error(const std::function<void()>& attempt, const char* what) {
    try {
        attempt();
        FAIL() << what << ": no exception";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << what << ": " << e.what();
    }
}

TEST(ServeProtocol, BadHandshakeMagicIsTypedForSessionAndRouter) {
    const std::string bad = raw_handshake(0xDEADBEEF, kProtocolVersion, 1, 0, 1,
                                          split::all_wire_formats_mask());
    ClientParts client = make_client();
    {
        ScriptedHost host([&bad](split::Channel& channel) { channel.send(bad); });
        expect_protocol_error(
            [&] {
                RemoteSession session(split::tcp_connect("127.0.0.1", host.port()),
                                      *client.model.head, nullptr, *client.model.tail,
                                      client.selector, split::WireFormat::f32, kShortTimeout);
            },
            "RemoteSession vs bad magic");
    }
    {
        ScriptedHost host([&bad](split::Channel& channel) { channel.send(bad); });
        std::vector<std::unique_ptr<split::Channel>> channels;
        channels.push_back(split::tcp_connect("127.0.0.1", host.port()));
        expect_protocol_error(
            [&] {
                ShardRouter router(std::move(channels), *client.model.head, nullptr,
                                   *client.model.tail, client.selector, split::WireFormat::f32,
                                   kShortTimeout);
            },
            "ShardRouter vs bad magic");
    }
}

TEST(ServeProtocol, VersionMismatchIsTyped) {
    const std::string stale =
        raw_handshake(kHandshakeMagic, kProtocolVersion + 7, 1, 0, 1,
                      split::all_wire_formats_mask());
    ClientParts client = make_client();
    ScriptedHost host([&stale](split::Channel& channel) { channel.send(stale); });
    expect_protocol_error(
        [&] {
            RemoteSession session(split::tcp_connect("127.0.0.1", host.port()),
                                  *client.model.head, nullptr, *client.model.tail,
                                  client.selector, split::WireFormat::f32, kShortTimeout);
        },
        "RemoteSession vs stale protocol version");
}

TEST(ServeProtocol, V2HostIsRefusedByNameNotLength) {
    // A v4 client pointed at a PR-3 (v2, lockstep) host: its 24-byte
    // handshake must decode to a typed protocol_error that NAMES the
    // version pair — there is no silent lockstep fallback, because v2
    // untagged frames and v4 tagged frames would desynchronize bytewise.
    const std::string v2 = raw_v2_handshake(1, 0, 1, split::all_wire_formats_mask());
    try {
        (void)decode_handshake(v2);
        FAIL() << "v2 handshake decoded under a v4 client";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
        const std::string what = e.what();
        EXPECT_NE(what.find("host v2"), std::string::npos) << what;
        EXPECT_NE(what.find("client v4"), std::string::npos) << what;
    }

    // End-to-end: both session kinds refuse the v2 host.
    ClientParts client = make_client();
    {
        ScriptedHost host([&v2](split::Channel& channel) { channel.send(v2); });
        expect_protocol_error(
            [&] {
                RemoteSession session(split::tcp_connect("127.0.0.1", host.port()),
                                      *client.model.head, nullptr, *client.model.tail,
                                      client.selector, split::WireFormat::f32, kShortTimeout);
            },
            "RemoteSession vs v2 host");
    }
    {
        ScriptedHost host([&v2](split::Channel& channel) { channel.send(v2); });
        std::vector<std::unique_ptr<split::Channel>> channels;
        channels.push_back(split::tcp_connect("127.0.0.1", host.port()));
        expect_protocol_error(
            [&] {
                ShardRouter router(std::move(channels), *client.model.head, nullptr,
                                   *client.model.tail, client.selector, split::WireFormat::f32,
                                   kShortTimeout);
            },
            "ShardRouter vs v2 host");
    }
}

TEST(ServeProtocol, V2ClientFramesAreRefusedByV4Host) {
    // The reverse direction: a v2 lockstep client that somehow got past
    // the handshake would send UNTAGGED frames. A v4 host must refuse
    // anything too short to carry a request tag as a typed protocol_error
    // naming the lockstep suspicion — never interpret the first 8 payload
    // bytes as an id and silently desynchronize.
    std::string_view payload;
    try {
        (void)parse_request_frame(std::string_view("abc"), payload);
        FAIL() << "short untagged frame parsed as a v4 request";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
        EXPECT_NE(std::string(e.what()).find("v2"), std::string::npos) << e.what();
    }
    try {
        (void)parse_reply_frame(std::string_view("short"), payload);
        FAIL() << "short untagged frame parsed as a v4 reply";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
    }

    // Handshake hardening for the new window field: zero and absurd
    // in-flight windows are corrupt peers, not configurations.
    expect_protocol_error(
        [&] {
            (void)decode_handshake(raw_handshake(kHandshakeMagic, kProtocolVersion, 1, 0, 1,
                                                 split::all_wire_formats_mask(),
                                                 /*max_inflight=*/0));
        },
        "decode_handshake vs zero window");
    expect_protocol_error(
        [&] {
            (void)decode_handshake(raw_handshake(kHandshakeMagic, kProtocolVersion, 1, 0, 1,
                                                 split::all_wire_formats_mask(),
                                                 /*max_inflight=*/1u << 30));
        },
        "decode_handshake vs absurd window");
}

TEST(ServeProtocol, DeploymentVersionRoundTripsAndV3IsRefusedByName) {
    // v4's new field: the deployment generation a connection pins. It
    // must survive the encode/decode round trip (the hot-swap fork test
    // detects swap completion through it) and default to 0 (unversioned).
    HostInfo info;
    info.total_bodies = 3;
    info.body_begin = 0;
    info.body_count = 3;
    info.wire_mask = split::all_wire_formats_mask();
    info.deployment_version = 42;
    const HostInfo decoded = decode_handshake(encode_handshake(info));
    EXPECT_EQ(decoded.deployment_version, 42u);
    info.deployment_version = 0;
    EXPECT_EQ(decode_handshake(encode_handshake(info)).deployment_version, 0u);

    // A PR-4 (v3, unpinned-pipelined) host is refused BY NAME even when
    // its message happens to be padded to the v4 length — the version
    // field is checked before the body.
    try {
        (void)decode_handshake(raw_handshake(kHandshakeMagic, 3, 1, 0, 1,
                                             split::all_wire_formats_mask()));
        FAIL() << "v3 handshake decoded under a v4 client";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
        const std::string what = e.what();
        EXPECT_NE(what.find("host v3"), std::string::npos) << what;
        EXPECT_NE(what.find("client v4"), std::string::npos) << what;
    }
}

TEST(ServeProtocol, RemoteSessionRefusesShardHostAndUnsupportedWire) {
    ClientParts client = make_client();
    {
        // A shard host (bodies [0, 1) of 2) must be driven by a ShardRouter.
        HostInfo shard;
        shard.total_bodies = 2;
        shard.body_begin = 0;
        shard.body_count = 1;
        shard.wire_mask = split::all_wire_formats_mask();
        ScriptedHost host(
            [msg = encode_handshake(shard)](split::Channel& channel) { channel.send(msg); });
        expect_protocol_error(
            [&] {
                RemoteSession session(split::tcp_connect("127.0.0.1", host.port()),
                                      *client.model.head, nullptr, *client.model.tail,
                                      core::Selector(2, {0}), split::WireFormat::f32,
                                      kShortTimeout);
            },
            "RemoteSession vs shard host");
    }
    {
        // Host only speaks f32; a q8 client must fail the negotiation.
        HostInfo f32_only;
        f32_only.total_bodies = 1;
        f32_only.body_begin = 0;
        f32_only.body_count = 1;
        f32_only.wire_mask = split::wire_format_bit(split::WireFormat::f32);
        ScriptedHost host(
            [msg = encode_handshake(f32_only)](split::Channel& channel) { channel.send(msg); });
        expect_protocol_error(
            [&] {
                RemoteSession session(split::tcp_connect("127.0.0.1", host.port()),
                                      *client.model.head, nullptr, *client.model.tail,
                                      client.selector, split::WireFormat::q8, kShortTimeout);
            },
            "RemoteSession vs f32-only host");
    }
}

TEST(ServeProtocol, ShardMapOverlapGapAndTotalMismatchAreTyped) {
    harness::EnsembleParts parts = harness::make_linear_ensemble(77, 4, 2);
    harness::set_eval(parts);
    const core::Selector selector(4, {0, 3});
    const auto build_router = [&](const HostInfo& a, const HostInfo& b) {
        ScriptedHost host_a(
            [msg = encode_handshake(a)](split::Channel& channel) { channel.send(msg); });
        ScriptedHost host_b(
            [msg = encode_handshake(b)](split::Channel& channel) { channel.send(msg); });
        std::vector<std::unique_ptr<split::Channel>> channels;
        channels.push_back(split::tcp_connect("127.0.0.1", host_a.port()));
        channels.push_back(split::tcp_connect("127.0.0.1", host_b.port()));
        ShardRouter router(std::move(channels), *parts.head, nullptr, *parts.tail, selector,
                           split::WireFormat::f32, kShortTimeout);
    };
    const auto info = [](std::uint32_t total, std::uint32_t begin, std::uint32_t count) {
        HostInfo host;
        host.total_bodies = total;
        host.body_begin = begin;
        host.body_count = count;
        host.wire_mask = split::all_wire_formats_mask();
        return host;
    };
    // Overlap: [0, 3) and [2, 4) both claim body 2.
    expect_protocol_error([&] { build_router(info(4, 0, 3), info(4, 2, 2)); },
                          "ShardRouter vs overlapping slices");
    // Gap: nobody serves body 2.
    expect_protocol_error([&] { build_router(info(4, 0, 2), info(4, 3, 1)); },
                          "ShardRouter vs body-range gap");
    // Disagreement on the deployment size.
    expect_protocol_error([&] { build_router(info(4, 0, 2), info(6, 2, 4)); },
                          "ShardRouter vs total-bodies mismatch");
}

TEST(ServeProtocol, TruncatedAndCorruptFeatureFramesAreTyped) {
    // Direct codec hardening: truncation and hostile shape fields must be
    // typed refusals, never crashes or giant allocations.
    Rng rng(5);
    const Tensor tensor = Tensor::randn(Shape{2, 4}, rng);
    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        const std::string good = split::encode_tensor(tensor, wire);
        const std::string truncated = good.substr(0, good.size() - 3);
        expect_protocol_error([&] { (void)split::decode_tensor(truncated); },
                              "decode_tensor vs truncated payload");
        const std::string padded = good + "xx";
        expect_protocol_error([&] { (void)split::decode_tensor(padded); },
                              "decode_tensor vs trailing garbage");
    }
    {
        // Hostile rank field: claims 2^40 dims; must refuse before allocating.
        std::ostringstream out(std::ios::binary);
        BinaryWriter writer(out);
        writer.write_u32(0x464D4150);  // "FMAP"
        writer.write_u64(std::uint64_t{1} << 40);
        expect_protocol_error([&] { (void)split::decode_tensor(out.str()); },
                              "decode_tensor vs hostile rank");
    }
    {
        // uint64-wrap attempt: shape [2^62] would wrap numel * 4 B back to
        // the tiny message size; the numel-vs-message bound must refuse it
        // before the size arithmetic (and any allocation) runs.
        std::ostringstream out(std::ios::binary);
        BinaryWriter writer(out);
        writer.write_u32(0x464D4150);
        writer.write_u64(1);
        writer.write_i64(std::int64_t{1} << 62);
        expect_protocol_error([&] { (void)split::decode_tensor(out.str()); },
                              "decode_tensor vs uint64-wrap shape");
    }
    {
        // Hostile dimension product: shape demands ~64 TB; size check must
        // reject the mismatch before the tensor is allocated.
        std::ostringstream out(std::ios::binary);
        BinaryWriter writer(out);
        writer.write_u32(0x464D4150);
        writer.write_u64(2);
        writer.write_i64(std::int64_t{1} << 22);
        writer.write_i64(std::int64_t{1} << 22);
        expect_protocol_error([&] { (void)split::decode_tensor(out.str()); },
                              "decode_tensor vs hostile dims");
    }

    // End-to-end: a host that answers a request with a truncated frame
    // fails the client's infer() typed, within the recv timeout.
    ClientParts client = make_client();
    HostInfo whole;
    whole.total_bodies = 1;
    whole.body_begin = 0;
    whole.body_count = 1;
    whole.wire_mask = split::all_wire_formats_mask();
    ScriptedHost host([msg = encode_handshake(whole)](split::Channel& channel) {
        channel.send(msg);
        const std::string request = channel.recv();
        channel.send(request.substr(0, request.size() / 2));  // truncated reply
    });
    RemoteSession session(split::tcp_connect("127.0.0.1", host.port()), *client.model.head,
                          nullptr, *client.model.tail, client.selector, split::WireFormat::f32,
                          kShortTimeout);
    session.set_recv_timeout(kShortTimeout);
    Rng data_rng(9);
    expect_protocol_error(
        [&] { (void)session.infer(Tensor::randn(Shape{1, harness::kIn}, data_rng)); },
        "infer vs truncated feature frame");
}

TEST(ServeProtocol, IdleSessionOutlivesRecvCapButStalledRequestTimesOut) {
    // The demux recv runs continuously under the per-request cap, so a
    // recv timeout on an IDLE link must re-arm, while one with a sent
    // request older than the cap fails the link typed. A cap far below
    // kShortTimeout keeps the idle-then-stall script near one second.
    //
    // The host answers one warm-up request before it stalls: a socket's
    // recv timeout is sampled when a recv starts, so the demux recv that
    // was already blocked when set_recv_timeout ran keeps waiting without
    // limit until a frame arrives. After the warm-up reply every demux
    // recv runs under the cap.
    constexpr std::chrono::milliseconds kCap{250};
    ClientParts client = make_client();
    HostInfo whole;
    whole.total_bodies = 1;
    whole.body_begin = 0;
    whole.body_count = 1;
    whole.wire_mask = split::all_wire_formats_mask();
    std::atomic<bool> stalled_read{false};
    ScriptedHost host([&, msg = encode_handshake(whole)](split::Channel& channel) {
        channel.send(msg);
        std::string_view payload;
        const std::string warmup = channel.recv();
        const std::uint64_t id = parse_request_frame(warmup, payload);
        const Tensor features = client.model.body->forward(split::decode_tensor(payload));
        unsigned char tag[kReplyTagBytes];
        encode_reply_tag(id, 0, tag);
        channel.send_parts(std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                           split::encode_tensor(features, split::encoded_wire_format(payload)));
        (void)channel.recv();  // read the next request, never reply
        stalled_read = true;
    });
    RemoteSession session(split::tcp_connect("127.0.0.1", host.port()), *client.model.head,
                          nullptr, *client.model.tail, client.selector, split::WireFormat::f32,
                          kShortTimeout);
    session.set_recv_timeout(kCap);
    Rng data_rng(13);
    (void)session.infer(Tensor::randn(Shape{1, harness::kIn}, data_rng));

    // Idle past the cap several times over: the link stays healthy.
    std::this_thread::sleep_for(3 * kCap);
    EXPECT_FALSE(session.shard_needs_reconnect(0));
    EXPECT_EQ(session.replica_status(0).healthy, 1u);

    // The stalled request faults with channel_timeout, no sooner than the
    // cap after it was sent.
    const Stopwatch waited;
    std::future<InferenceResult> stalled =
        session.submit(Tensor::randn(Shape{1, harness::kIn}, data_rng));
    try {
        (void)stalled.get();
        FAIL() << "stalled request resolved";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::channel_timeout) << e.what();
    }
    EXPECT_GE(waited.elapsed_ms(), static_cast<double>(kCap.count()));
    EXPECT_TRUE(stalled_read.load()) << "the stalled request never reached the host";

    // The stream is desynchronized now (the reply may still arrive):
    // further submission is refused typed until a reconnect.
    EXPECT_TRUE(session.shard_needs_reconnect(0));
    try {
        (void)session.submit(Tensor::randn(Shape{1, harness::kIn}, data_rng));
        FAIL() << "submit accepted on a timed-out link";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::channel_closed) << e.what();
        EXPECT_NE(std::string(e.what()).find("reconnect"), std::string::npos) << e.what();
    }
}

}  // namespace
}  // namespace ens::serve
