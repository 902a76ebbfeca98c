#pragma once
// Body-serving handshake + frame protocol between a BodyHost (served by a
// ReactorHost) and the one wire client, ShardRouter: K shard hosts for the
// §III-D multiparty layout, or one whole-deployment host (K = 1, the
// RemoteSession case).
//
// Version 2 made the handshake shard-aware (which contiguous slice of the
// deployment's N global bodies a host serves, plus its accepted wire
// formats). Version 3 makes the connection PIPELINED: the handshake
// additionally carries the host's per-connection in-flight window
// (max_inflight), and every post-handshake message is tagged —
//   request (client -> host):  u64 request_id | codec bytes
//   reply   (host -> client):  u64 request_id | u32 body_seq | codec bytes
// (all little-endian) — so up to `max_inflight` requests can be on the
// wire at once, replies may interleave and complete out of order, and the
// receiver demultiplexes by id instead of trusting stream position. A
// whole-deployment host is simply the shard [0, N) of N; body_seq indexes
// the host's OWN slice (global index = slice begin + body_seq).
// Version 4 adds DEPLOYMENT-VERSION PINNING for zero-downtime hot swaps
// (serve/deployment.hpp): the handshake carries the monotonically
// increasing version of the bundle this connection is pinned to, so a
// session knows which deployment generation will answer every one of its
// requests — a live bundle swap changes what NEW connections handshake,
// never what an existing session observes. 0 means "unversioned" (a host
// serving a fixed in-memory deployment with no swap machinery).
//
// Handshake message (host -> client, first message on every connection):
//   u32 magic "ENSB" | u32 version | u32 total_bodies | u32 body_begin |
//   u32 body_count | u32 wire_mask | u32 max_inflight |
//   u32 deployment_version
// Every malformed or incompatible field decodes to a typed
// ens::Error{protocol_error} — pointing a client at a non-ens endpoint, a
// stale binary, or a misconfigured shard must fail loudly and immediately,
// never hang, crash, or fall back to lockstep framing against a pipelined
// peer (the frames would silently desynchronize). In particular an older
// peer is rejected BY NAME ("host v2, client v4") on both sides: the
// version field is checked before anything else in the message body.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "split/codec.hpp"

namespace ens::split {
class Channel;
}

namespace ens::serve {

inline constexpr std::uint32_t kHandshakeMagic = 0x42534E45;  // "ENSB"
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Default per-connection in-flight request window (both the host cap a
/// BodyHost advertises and the client cap sessions start from; the
/// effective window of a connection is the smaller of the two).
inline constexpr std::size_t kDefaultMaxInflight = 8;

/// Upper bound a handshake may advertise — anything larger is a corrupt or
/// hostile peer, not a plausible deployment.
inline constexpr std::uint32_t kMaxAdvertisedInflight = 65536;

/// What a body host declares about itself during the handshake.
struct HostInfo {
    std::size_t total_bodies = 0;  ///< N of the whole deployment
    std::size_t body_begin = 0;    ///< first global body index hosted here
    std::size_t body_count = 0;    ///< contiguous bodies hosted here
    std::uint32_t wire_mask = 0;   ///< accepted split::WireFormat bits
    /// Requests this host keeps in flight per connection (>= 1).
    std::uint32_t max_inflight = static_cast<std::uint32_t>(kDefaultMaxInflight);
    /// Deployment generation this connection is pinned to (hot-swap
    /// version pinning; 0 = unversioned static host).
    std::uint32_t deployment_version = 0;

    /// Past-the-end global body index of this host's slice.
    std::size_t body_end() const { return body_begin + body_count; }

    /// "bodies [2, 4) of 6" — for errors and logs.
    std::string to_string() const;
};

/// Serializes the version-4 handshake message.
std::string encode_handshake(const HostInfo& info);

/// Parses and validates a handshake message. Throws
/// ens::Error{protocol_error} on bad magic, version mismatch (named:
/// "host vX, client v4" — checked before the body so an older host fails
/// on its version, not on its message length), an empty or out-of-range
/// body slice, an empty/unknown wire mask, or a zero/absurd in-flight
/// window.
HostInfo decode_handshake(const std::string& bytes);

/// Client side of the handshake, run by ShardRouter on every connection:
/// receives and validates the host's announcement under `handshake_timeout`
/// (a silent or wrong endpoint fails typed, never wedges), restores the
/// channel's recv timeout to `session_timeout`, and checks the host accepts
/// `wire_format` (typed protocol_error otherwise, prefixed with `who`).
HostInfo perform_handshake(split::Channel& channel, std::chrono::milliseconds handshake_timeout,
                           std::chrono::milliseconds session_timeout,
                           split::WireFormat wire_format, const char* who);

// ------------------------------------------------------- tagged frames
// Fixed-size little-endian tags prepended to every post-handshake codec
// message. They are shipped through Channel::send_parts so the codec
// payload is never copied to glue the tag on, and they are NOT billed in
// traffic counters (protocol framing, like the TcpChannel length prefix).

inline constexpr std::size_t kRequestTagBytes = 8;    // u64 request_id
inline constexpr std::size_t kReplyTagBytes = 8 + 4;  // u64 request_id | u32 body_seq

/// Writes the request tag for `request_id` into out[0..8).
void encode_request_tag(std::uint64_t request_id, unsigned char out[kRequestTagBytes]);

/// Writes the reply tag for (request_id, body_seq) into out[0..12).
void encode_reply_tag(std::uint64_t request_id, std::uint32_t body_seq,
                      unsigned char out[kReplyTagBytes]);

/// Splits a request frame into its id and codec payload view. Throws
/// ens::Error{protocol_error} when the frame is too short to carry a tag.
std::uint64_t parse_request_frame(std::string_view frame, std::string_view& payload);

/// Reply-frame demux key.
struct ReplyTag {
    std::uint64_t request_id = 0;
    std::uint32_t body_seq = 0;
};

/// Splits a reply frame into its tag and codec payload view. Throws
/// ens::Error{protocol_error} when the frame is too short to carry a tag.
ReplyTag parse_reply_frame(std::string_view frame, std::string_view& payload);

}  // namespace ens::serve
