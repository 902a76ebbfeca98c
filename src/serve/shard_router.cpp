#include "serve/shard_router.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {

namespace {

std::string replica_label(std::size_t shard, std::size_t replica, std::size_t replicas) {
    std::string label = "shard " + std::to_string(shard);
    if (replicas > 1) {
        label += " replica " + std::to_string(replica);
    }
    return label;
}

std::string shard_label(std::size_t shard) { return replica_label(shard, 0, 1); }

}  // namespace

// ----------------------------------------------------------- construction

ShardRouter::ShardRouter(std::vector<std::unique_ptr<split::Channel>> shards, nn::Layer& head,
                         nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                         split::WireFormat wire_format,
                         std::chrono::milliseconds handshake_timeout, std::size_t max_inflight)
    : head_(head),
      noise_(noise),
      tail_(tail),
      selector_(std::move(selector)),
      wire_format_(wire_format),
      handshake_timeout_(handshake_timeout) {
    std::vector<std::vector<std::unique_ptr<split::Channel>>> groups;
    groups.reserve(shards.size());
    for (auto& channel : shards) {
        groups.emplace_back();
        groups.back().push_back(std::move(channel));
    }
    init(std::move(groups), max_inflight);
}

ShardRouter::ShardRouter(std::vector<std::vector<std::unique_ptr<split::Channel>>> shard_replicas,
                         nn::Layer& head, nn::Layer* noise, nn::Layer& tail,
                         core::Selector selector, split::WireFormat wire_format,
                         RetryPolicy retry, std::size_t max_inflight)
    : head_(head),
      noise_(noise),
      tail_(tail),
      selector_(std::move(selector)),
      wire_format_(wire_format),
      retry_(retry),
      handshake_timeout_(retry.handshake_timeout) {
    init(std::move(shard_replicas), max_inflight);
}

ShardRouter::ShardRouter(const std::vector<std::vector<ReplicaEndpoint>>& shard_endpoints,
                         nn::Layer& head, nn::Layer* noise, nn::Layer& tail,
                         core::Selector selector, split::WireFormat wire_format,
                         RetryPolicy retry, std::size_t max_inflight)
    : head_(head),
      noise_(noise),
      tail_(tail),
      selector_(std::move(selector)),
      wire_format_(wire_format),
      retry_(retry),
      handshake_timeout_(retry.handshake_timeout) {
    // Dial every replica up front, each attempt bounded by the policy's
    // connect timeout so a black-holed endpoint cannot stall construction
    // past max_attempts * (connect_timeout + backoff). A replica that
    // stays unreachable does NOT fail construction while a sibling
    // connects: it becomes a born-failed link the background redialer
    // keeps re-admitting — a deployment with a crashed replica must still
    // accept new clients, or replication buys nothing at boot time. Only
    // a shard with NO reachable replica is fatal (labeled with the last
    // replica's dial error).
    std::vector<std::vector<std::unique_ptr<split::Channel>>> groups;
    groups.reserve(shard_endpoints.size());
    for (std::size_t s = 0; s < shard_endpoints.size(); ++s) {
        ENS_REQUIRE(!shard_endpoints[s].empty(),
                    "ShardRouter: shard " + std::to_string(s) + " has no replica endpoints");
        groups.emplace_back();
        std::size_t reachable = 0;
        std::exception_ptr last_dial_error;
        for (std::size_t r = 0; r < shard_endpoints[s].size(); ++r) {
            const ReplicaEndpoint& endpoint = shard_endpoints[s][r];
            const std::size_t tries = std::max<std::size_t>(1, retry_.max_attempts);
            std::unique_ptr<split::Channel> channel;
            for (std::size_t attempt = 0; attempt < tries; ++attempt) {
                try {
                    channel = split::tcp_connect(endpoint.host, endpoint.port,
                                                 retry_.connect_timeout);
                    break;
                } catch (const Error&) {
                    if (attempt + 1 == tries) {
                        last_dial_error = labeled_exception(
                            replica_label(s, r, shard_endpoints[s].size()) + " (" +
                                endpoint.host + ":" + std::to_string(endpoint.port) + ")",
                            std::current_exception());
                    } else {
                        std::this_thread::sleep_for(retry_.backoff_for(attempt));
                    }
                }
            }
            reachable += channel != nullptr;
            groups.back().push_back(std::move(channel));
        }
        if (reachable == 0) {
            std::rethrow_exception(last_dial_error);
        }
    }
    init(std::move(groups), max_inflight);
    // The background redialer needs addresses; it only exists for this
    // constructor.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        for (std::size_t r = 0; r < shards_[s].replicas.size(); ++r) {
            shards_[s].replicas[r]->endpoint = shard_endpoints[s][r];
        }
    }
    maintenance_ = std::thread([this] { maintenance_loop(); });
}

ShardRouter::~ShardRouter() { close(); }

void ShardRouter::init(std::vector<std::vector<std::unique_ptr<split::Channel>>> shard_replicas,
                       std::size_t max_inflight) {
    ENS_REQUIRE(!shard_replicas.empty(), "ShardRouter: no shard channels");
    ENS_REQUIRE(max_inflight >= 1, "ShardRouter: max_inflight must be >= 1");
    for (std::size_t s = 0; s < shard_replicas.size(); ++s) {
        ENS_REQUIRE(!shard_replicas[s].empty(),
                    "ShardRouter: shard " + std::to_string(s) + " has no replica channels");
    }

    // A null replica channel marks a replica that could not be dialed
    // (endpoint constructor): it is skipped here and becomes a born-failed
    // link, taking its slice from a live sibling's handshake. At least one
    // live replica per shard is required — the shard map cannot be learned
    // from nobody.
    shards_ = std::vector<Shard>(shard_replicas.size());
    window_ = max_inflight;
    std::size_t total_bodies = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const std::size_t replicas = shard_replicas[s].size();
        bool have_slice = false;
        for (std::size_t r = 0; r < replicas; ++r) {
            if (!shard_replicas[s][r]) {
                continue;
            }
            HostInfo host;
            try {
                host = adopt(*shard_replicas[s][r], handshake_timeout_);
            } catch (const Error&) {
                rethrow_labeled(replica_label(s, r, replicas), std::current_exception());
            }
            if (s == 0 && !have_slice) {
                total_bodies = host.total_bodies;
            } else if (host.total_bodies != total_bodies) {
                throw Error(ErrorCode::protocol_error,
                            "ShardRouter: " + replica_label(s, r, replicas) + " reports " +
                                std::to_string(host.total_bodies) +
                                " total bodies, shard 0 reports " +
                                std::to_string(total_bodies));
            }
            const HostInfo& slice = shards_[s].host;
            if (!have_slice) {
                shards_[s].host = host;
                have_slice = true;
            } else if (host.body_begin != slice.body_begin || host.body_count != slice.body_count) {
                // A replica must be a drop-in for its siblings: the failover
                // replay depends on every member answering the same slice.
                throw Error(ErrorCode::protocol_error,
                            "ShardRouter: " + replica_label(s, r, replicas) + " serves " +
                                host.to_string() + ", but shard " + std::to_string(s) +
                                " replicas must serve bodies [" +
                                std::to_string(slice.body_begin) + ", " +
                                std::to_string(slice.body_end()) + ")");
            }
            // The connection window is capped by the slowest-willing host: a
            // request is only complete when EVERY shard answered it, so one
            // host's smaller window bounds the whole router's.
            window_ = std::min(window_, static_cast<std::size_t>(host.max_inflight));
        }
        ENS_REQUIRE(have_slice,
                    "ShardRouter: shard " + std::to_string(s) + " has no usable replica channel");
    }

    // The K slices must tile [0, N) exactly: sort by begin and walk. An
    // overlap means two hosts both claim a body (their weights would
    // silently diverge); a gap means nobody serves it. Both are deployment
    // misconfigurations the handshake exists to catch. A lone shard host
    // handed where a whole-deployment host belongs fails here too.
    std::vector<std::size_t> order(shards_.size());
    for (std::size_t s = 0; s < order.size(); ++s) {
        order[s] = s;
    }
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
        return shards_[a].host.body_begin < shards_[b].host.body_begin;
    });
    std::size_t covered = 0;
    for (const std::size_t s : order) {
        const HostInfo& slice = shards_[s].host;
        if (slice.body_begin < covered) {
            throw Error(ErrorCode::protocol_error,
                        "ShardRouter: shard " + std::to_string(s) + " bodies [" +
                            std::to_string(slice.body_begin) + ", " +
                            std::to_string(slice.body_end()) + ") overlap another shard's slice");
        }
        if (slice.body_begin > covered) {
            throw Error(ErrorCode::protocol_error,
                        "ShardRouter: no shard hosts bodies [" + std::to_string(covered) + ", " +
                            std::to_string(slice.body_begin) + ")");
        }
        covered = slice.body_end();
    }
    if (covered != total_bodies) {
        throw Error(ErrorCode::protocol_error,
                    "ShardRouter: shards cover only [0, " + std::to_string(covered) + ") of " +
                        std::to_string(total_bodies) + " bodies");
    }
    ENS_REQUIRE(selector_.n() == total_bodies,
                "ShardRouter: selector must cover the deployment's " +
                    std::to_string(total_bodies) + " bodies");

    // Handshakes done, shard map validated: build the whole topology, then
    // bring up the persistent per-link recv-demux threads (one per live
    // channel, for the life of the connection) — a demux failing its link
    // walks its siblings.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const std::size_t replicas = shard_replicas[s].size();
        for (std::size_t r = 0; r < replicas; ++r) {
            auto link = std::make_unique<Link>();
            link->shard = s;
            link->label = replica_label(s, r, replicas);
            link->channel = std::move(shard_replicas[s][r]);
            link->failed = link->channel == nullptr;
            link->needs_reconnect = link->failed;
            shards_[s].replicas.push_back(std::move(link));
        }
    }
    for (Shard& shard : shards_) {
        for (auto& link : shard.replicas) {
            if (!link->failed) {
                start_link(*link);
            }
        }
    }
}

HostInfo ShardRouter::adopt(split::Channel& channel,
                            std::chrono::milliseconds handshake_timeout) const {
    return perform_handshake(channel, handshake_timeout,
                             /*session_timeout=*/std::chrono::milliseconds(recv_timeout_ms_.load()),
                             wire_format_, "ShardRouter");
}

// ------------------------------------------------------------- accessors

std::vector<HostInfo> ShardRouter::shard_map() const {
    std::vector<HostInfo> map;
    map.reserve(shards_.size());
    for (const Shard& shard : shards_) {
        map.push_back(shard.host);
    }
    return map;
}

std::size_t ShardRouter::shard_of_body(std::size_t body_index) const {
    ENS_REQUIRE(body_index < body_count(), "ShardRouter::shard_of_body: index out of range");
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (body_index >= shards_[s].host.body_begin && body_index < shards_[s].host.body_end()) {
            return s;
        }
    }
    ENS_FAIL("ShardRouter: shard map does not cover body " + std::to_string(body_index));
}

const SessionStats& ShardRouter::shard_stats(std::size_t shard) const {
    ENS_REQUIRE(shard < shards_.size(), "ShardRouter::shard_stats: shard out of range");
    return shards_[shard].stats;
}

split::TrafficStats ShardRouter::shard_traffic(std::size_t shard) const {
    ENS_REQUIRE(shard < shards_.size(), "ShardRouter::shard_traffic: shard out of range");
    split::TrafficStats total;
    for (const auto& link : shards_[shard].replicas) {
        const std::lock_guard<std::mutex> lock(link->mutex);
        // A born-failed replica has no channel (and so no traffic) yet.
        if (link->channel) {
            const split::TrafficStats traffic = link->channel->stats();
            total.messages += traffic.messages;
            total.bytes += traffic.bytes;
        }
    }
    return total;
}

void ShardRouter::reset_stats() {
    stats_.reset();
    for (Shard& shard : shards_) {
        shard.stats.reset();
        for (auto& link : shard.replicas) {
            const std::lock_guard<std::mutex> lock(link->mutex);
            if (link->channel) {
                link->channel->reset_stats();
            }
        }
    }
}

bool ShardRouter::link_failed(const Link& link) const {
    const std::lock_guard<std::mutex> lock(table_mutex_);
    return link.needs_reconnect;
}

bool ShardRouter::shard_needs_reconnect(std::size_t shard) const {
    ENS_REQUIRE(shard < shards_.size(), "ShardRouter::shard_needs_reconnect: shard out of range");
    const std::lock_guard<std::mutex> lock(table_mutex_);
    return shards_[shard].down;
}

ShardRouter::ReplicaStatus ShardRouter::replica_status(std::size_t shard) const {
    ENS_REQUIRE(shard < shards_.size(), "ShardRouter::replica_status: shard out of range");
    ReplicaStatus status;
    status.configured = shards_[shard].replicas.size();
    const std::lock_guard<std::mutex> lock(table_mutex_);
    for (const auto& link : shards_[shard].replicas) {
        status.healthy += link->needs_reconnect ? 0 : 1;
    }
    return status;
}

void ShardRouter::set_recv_timeout(std::chrono::milliseconds timeout) {
    recv_timeout_ms_.store(timeout.count());
    for (Shard& shard : shards_) {
        for (auto& link : shard.replicas) {
            const std::lock_guard<std::mutex> lock(link->mutex);
            if (!link->failed) {
                link->channel->set_recv_timeout(timeout);
            }
        }
    }
}

// ------------------------------------------------------------ reconnects

void ShardRouter::require_slice(std::size_t shard, const HostInfo& host) const {
    const HostInfo& slice = shards_[shard].host;
    if (host.total_bodies != slice.total_bodies || host.body_begin != slice.body_begin ||
        host.body_count != slice.body_count) {
        throw Error(ErrorCode::protocol_error,
                    "ShardRouter: replacement host serves " + host.to_string() +
                        ", but shard " + std::to_string(shard) + " must serve " +
                        slice.to_string());
    }
}

void ShardRouter::reconnect_shard(std::size_t shard, std::unique_ptr<split::Channel> channel) {
    ENS_REQUIRE(shard < shards_.size(), "ShardRouter::reconnect_shard: shard out of range");
    ENS_REQUIRE(channel != nullptr, "ShardRouter::reconnect_shard: null channel");
    const HostInfo host = adopt(*channel, handshake_timeout_);
    require_slice(shard, host);
    const std::lock_guard<std::mutex> serial(reconnect_mutex_);
    for (auto& link : shards_[shard].replicas) {
        if (link_failed(*link)) {
            reconnect(*link, std::move(channel));
            return;
        }
    }
    ENS_FAIL("ShardRouter::reconnect_shard: no failed replica on shard " +
             std::to_string(shard) + "; nothing to replace");
}

void ShardRouter::reconnect(Link& link, std::unique_ptr<split::Channel> channel) {
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        ENS_REQUIRE(!closed_, "ShardRouter: reconnect on a closed router");
        ENS_REQUIRE(link.needs_reconnect,
                    "ShardRouter: " + link.label + " is healthy; nothing to replace");
    }
    // The failed link's demux exited when fail_link closed the channel;
    // join so the new demux never coexists with the old one. A submitter
    // still inside a send on the old channel holds send_mutex until the
    // close wakes it, so the swap never pulls a channel out from under it.
    if (link.demux.joinable()) {
        link.demux.join();
    }
    {
        const std::scoped_lock lock(link.send_mutex, link.mutex);
        link.channel = std::move(channel);
        link.failed = false;
        link.pending.clear();
        link.channel->set_recv_timeout(std::chrono::milliseconds(recv_timeout_ms_.load()));
    }
    start_link(link);
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        link.needs_reconnect = false;
        shards_[link.shard].down = false;  // the shard has a healthy replica again
    }
    window_cv_.notify_all();
}

void ShardRouter::maintenance_loop() {
    using Clock = std::chrono::steady_clock;
    struct Redial {
        Link* link = nullptr;
        bool down = false;
        std::size_t attempts = 0;
        Clock::time_point due{};
    };
    std::vector<Redial> redials;
    for (Shard& shard : shards_) {
        for (auto& link : shard.replicas) {
            redials.push_back(Redial{link.get()});
        }
    }
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(maint_mutex_);
            // Poll tick: failures have no push notification into this
            // thread, and a tick is cheap next to a redial.
            maint_cv_.wait_for(lock, std::chrono::milliseconds(20));
            if (maint_stop_) {
                return;
            }
        }
        const Clock::time_point now = Clock::now();
        for (Redial& redial : redials) {
            Link& link = *redial.link;
            if (!link_failed(link)) {
                redial.down = false;
                continue;
            }
            if (!redial.down) {
                // Transition healthy -> failed: start the backoff clock.
                redial.down = true;
                redial.attempts = 0;
                redial.due = now + retry_.backoff_for(0);
            }
            if (now < redial.due) {
                continue;
            }
            // One redial attempt, bounded by the policy's per-attempt
            // connect + handshake budgets.
            stats_.record_retry();
            shards_[link.shard].stats.record_retry();
            try {
                auto channel = split::tcp_connect(link.endpoint.host, link.endpoint.port,
                                                  retry_.connect_timeout);
                const HostInfo host = adopt(*channel, retry_.handshake_timeout);
                require_slice(link.shard, host);
                const std::lock_guard<std::mutex> serial(reconnect_mutex_);
                // A manual reconnect may have re-admitted it first; then
                // the spare channel is simply dropped.
                if (link_failed(link)) {
                    reconnect(link, std::move(channel));
                }
                redial.down = false;
                redial.attempts = 0;
            } catch (...) {
                ++redial.attempts;
                redial.due = Clock::now() + retry_.backoff_for(redial.attempts);
            }
        }
    }
}

// ------------------------------------------------------------ submission

bool ShardRouter::assign(const std::shared_ptr<InflightRequest>& request, std::size_t shard_index,
                         std::uint64_t wire_id) {
    Shard& shard = shards_[shard_index];
    std::size_t start;
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        start = shard.rr++;
    }
    for (std::size_t k = 0; k < shard.replicas.size(); ++k) {
        Link& link = *shard.replicas[(start + k) % shard.replicas.size()];
        std::exception_ptr send_error;
        {
            // Held across insert + write: this link's wire order is its
            // assign order (concurrent submitters, failover replays), and a
            // reconnect cannot swap the channel out from under the write.
            const std::lock_guard<std::mutex> send_lock(link.send_mutex);
            SharedPayload payload;
            {
                const std::lock_guard<std::mutex> lock(link.mutex);
                if (link.failed) {
                    continue;
                }
                // Inserted while the link is healthy: if it fails an instant
                // later, fail_link drains this pending and the request fails
                // over again (bounded by retry_.max_attempts). Its started
                // stamp is the send time (shard stats, the recv-timeout check).
                LinkPending pending;
                pending.request = request;
                pending.seen.assign(shard.host.body_count, false);
                link.pending.emplace(wire_id, std::move(pending));
                payload = request->payload;
            }
            unsigned char tag[kRequestTagBytes];
            encode_request_tag(wire_id, tag);
            try {
                link.channel->send_parts(
                    std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                    (**payload).view());
            } catch (...) {
                send_error = std::current_exception();
            }
        }
        if (send_error) {
            // The pending entry is now fail_link's: replayed or faulted.
            fail_link(link, send_error);
        }
        return true;
    }
    return false;
}

void ShardRouter::mark_shard_down(std::size_t shard) {
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        shards_[shard].down = true;
    }
    window_cv_.notify_all();
}

std::future<InferenceResult> ShardRouter::submit(Tensor images) {
    ENS_REQUIRE(images.defined(), "ShardRouter::submit: undefined image tensor");
    const Stopwatch submitted;  // total_ms spans the whole request, head included
    if (images.rank() == 3) {
        images = images.reshaped(Shape{1, images.dim(0), images.dim(1), images.dim(2)});
    }
    // Client phase: private head (+ split-point noise), encoded ONCE into a
    // pooled buffer — every shard's link carries the identical payload
    // bytes (TcpChannel's scatter-gather path glues the request tag on
    // without copying them again). The request retains the lease until it
    // settles, so a replica failover replays the same bytes.
    Tensor features = head_.forward(images);
    if (noise_ != nullptr) {
        features = noise_->forward(features);
    }
    auto payload = std::make_shared<split::WireBufferPool::Lease>(uplink_pool_.acquire());
    split::encode_into(features, wire_format_, **payload);

    auto request = std::make_shared<InflightRequest>();
    {
        const Stopwatch parked;
        std::unique_lock<std::mutex> lock(table_mutex_);
        const auto any_down = [this] {
            return std::any_of(shards_.begin(), shards_.end(),
                               [](const Shard& shard) { return shard.down; });
        };
        const auto check_usable = [this] {
            if (closed_) {
                throw Error(ErrorCode::channel_closed, "ShardRouter: session closed");
            }
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                if (shards_[s].down) {
                    throw Error(ErrorCode::channel_closed,
                                "ShardRouter: " + shard_label(s) +
                                    " is desynchronized by an earlier failure; "
                                    "reconnect_shard() it before further inference");
                }
            }
        };
        check_usable();
        // Window backpressure: park until an in-flight slot retires. A
        // shard going down while parked also wakes us — re-check so the
        // caller gets the desync refusal, not a hang.
        window_cv_.wait(lock, [&] { return closed_ || table_.size() < window_ || any_down(); });
        check_usable();
        request->id = next_id_.fetch_add(1, std::memory_order_relaxed);
        request->images = images.dim(0);
        request->payload = std::move(payload);
        request->features.assign(body_count(), Tensor{});
        request->frames_remaining.store(body_count());
        request->shards_remaining.store(shards_.size());
        // total_ms spans the head phase too; time parked on the full window
        // is this request's queue share.
        request->submitted = submitted;
        request->queue_ms = parked.elapsed_ms();
        table_.emplace(request->id, request);
    }
    std::future<InferenceResult> future = request->promise.get_future();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (assign(request, s, request->id)) {
            continue;
        }
        // Every replica of this shard failed between the usability check
        // and here: it will never deliver, so fault the request now instead
        // of leaving its future hanging — and publish the desync BEFORE
        // faulting, so a caller observing this fault (and then polling
        // shard_needs_reconnect) must not race it.
        mark_shard_down(s);
        const auto error = labeled_exception(
            shard_label(s), std::make_exception_ptr(Error(
                                ErrorCode::channel_closed, "link failed before the request "
                                                           "could be sent")));
        if (!request->settled.exchange(true)) {
            request->promise.set_exception(error);
        }
        shard_done_with(request);
    }
    return future;
}

InferenceResult ShardRouter::infer(Tensor images) { return submit(std::move(images)).get(); }

void ShardRouter::close() {
    if (maintenance_.joinable()) {
        {
            const std::lock_guard<std::mutex> lock(maint_mutex_);
            maint_stop_ = true;
        }
        maint_cv_.notify_all();
        maintenance_.join();
    }
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        if (closed_) {
            return;
        }
        closed_ = true;
    }
    window_cv_.notify_all();
    for (Shard& shard : shards_) {
        for (auto& link : shard.replicas) {
            try {
                const std::lock_guard<std::mutex> lock(link->mutex);
                link->failed = true;  // fail_link is a no-op from here on
                if (link->channel) {
                    link->channel->close();
                }
            } catch (...) {
            }
        }
    }
    for (Shard& shard : shards_) {
        for (auto& link : shard.replicas) {
            if (link->demux.joinable()) {
                link->demux.join();
            }
        }
    }
    // The demux threads are gone; fault whatever was still in flight so no
    // future ever hangs past close().
    for (Shard& shard : shards_) {
        for (auto& link : shard.replicas) {
            std::unordered_map<std::uint64_t, LinkPending> orphans;
            {
                const std::lock_guard<std::mutex> lock(link->mutex);
                orphans = std::move(link->pending);
                link->pending.clear();
            }
            const auto error = std::make_exception_ptr(
                Error(ErrorCode::channel_closed, "session closed with the request still in flight"));
            for (auto& [id, pending] : orphans) {
                if (!pending.request->settled.exchange(true)) {
                    // One exception object per promise, as in fail_link.
                    pending.request->promise.set_exception(labeled_exception(link->label, error));
                }
            }
        }
    }
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        table_.clear();
    }
    window_cv_.notify_all();
}

// ------------------------------------------------------------ I/O loops

void ShardRouter::start_link(Link& link) {
    link.demux = std::thread([this, &link] { demux_loop(link); });
}

void ShardRouter::demux_loop(Link& link) {
    for (;;) {
        std::string frame;
        try {
            frame = link.channel->recv();
        } catch (const Error& e) {
            if (e.code() == ErrorCode::channel_timeout) {
                // The demux recv runs CONTINUOUSLY, so a recv timeout is
                // only a failure when some pending request has actually
                // waited that long — an idle connection (or one whose
                // request was submitted moments before an old recv's clock
                // ran out) just re-arms. A mid-frame timeout poisoned the
                // channel already; the next recv surfaces channel_closed.
                double oldest_wait_ms = 0.0;  // stays 0 on an idle link
                {
                    const std::lock_guard<std::mutex> lock(link.mutex);
                    for (const auto& [id, pending] : link.pending) {
                        oldest_wait_ms = std::max(oldest_wait_ms, pending.started.elapsed_ms());
                    }
                }
                const long long cap_ms = recv_timeout_ms_.load();
                if (cap_ms <= 0 || oldest_wait_ms < static_cast<double>(cap_ms)) {
                    continue;
                }
            }
            fail_link(link, std::current_exception());
            return;
        } catch (...) {
            fail_link(link, std::current_exception());
            return;
        }
        try {
            handle_frame(link, frame);
        } catch (...) {
            fail_link(link, std::current_exception());
            return;
        }
    }
}

void ShardRouter::handle_frame(Link& link, const std::string& frame) {
    Shard& shard = shards_[link.shard];
    std::string_view payload;
    const ReplyTag tag = parse_reply_frame(frame, payload);
    std::shared_ptr<InflightRequest> request;
    {
        // Validate the tag against this link's expectations BEFORE decoding
        // (unknown id, out-of-range body, duplicate → typed protocol
        // errors), but do not mark delivery yet: a decode failure below
        // must leave the pending entry in place for fail_link to fault.
        const std::lock_guard<std::mutex> lock(link.mutex);
        const auto it = link.pending.find(tag.request_id);
        if (it == link.pending.end()) {
            throw Error(ErrorCode::protocol_error,
                        "reply tagged with unknown request id " + std::to_string(tag.request_id) +
                            " (hostile or desynchronized host)");
        }
        if (tag.body_seq >= shard.host.body_count) {
            throw Error(ErrorCode::protocol_error,
                        "reply body index " + std::to_string(tag.body_seq) +
                            " outside the host's " + std::to_string(shard.host.body_count) +
                            "-body slice");
        }
        if (it->second.seen[tag.body_seq]) {
            throw Error(ErrorCode::protocol_error,
                        "duplicate reply for request id " + std::to_string(tag.request_id) +
                            ", body " + std::to_string(tag.body_seq));
        }
        request = it->second.request;
    }

    // Decode outside the lock — this is the demux thread's compute share.
    Tensor decoded = split::decode_tensor(payload);

    bool share_done = false;
    {
        const std::lock_guard<std::mutex> lock(link.mutex);
        const auto it = link.pending.find(tag.request_id);
        if (it == link.pending.end()) {
            return;  // raced a concurrent failure; the request was faulted
        }
        LinkPending& pending = it->second;
        pending.seen[tag.body_seq] = true;
        ++pending.delivered;
        // Shards write disjoint global slots, so cross-shard writes need no
        // lock — but a failover replay re-delivers THIS shard's slots, so
        // the write stays under the link mutex: fail_link drains pending
        // under the same mutex before it replays, which strictly orders a
        // dying link's last write before the sibling's rewrite.
        request->features[shard.host.body_begin + tag.body_seq] = std::move(decoded);
        if (pending.delivered == shard.host.body_count) {
            share_done = true;
            shard.stats.record(pending.started.elapsed_ms(), /*queue_ms=*/0.0, request->images);
            link.pending.erase(it);
        }
    }

    // The frames_remaining decrement publishes the slot write to the
    // completing thread.
    if (request->frames_remaining.fetch_sub(1) == 1) {
        complete(request);
    }
    if (share_done) {
        shard_done_with(request);
    }
}

void ShardRouter::complete(const std::shared_ptr<InflightRequest>& request) {
    // The selector and tail layers are shared and their forward caches
    // are not thread-safe — one completion at a time.
    const std::lock_guard<std::mutex> lock(finish_mutex_);
    if (request->settled.exchange(true)) {
        return;  // a link failure faulted this request first
    }
    try {
        request->promise.set_value(finish_request(*request, selector_, tail_, stats_));
    } catch (...) {
        request->promise.set_exception(std::current_exception());
    }
}

void ShardRouter::shard_done_with(const std::shared_ptr<InflightRequest>& request) {
    if (request->shards_remaining.fetch_sub(1) == 1) {
        {
            const std::lock_guard<std::mutex> lock(table_mutex_);
            table_.erase(request->id);
        }
        // The payload's pool lease is only needed while a failover replay
        // is still possible; drop it with the table entry.
        request->payload.reset();
        window_cv_.notify_all();
    }
}

void ShardRouter::fail_link(Link& link, const std::exception_ptr& error) {
    std::unordered_map<std::uint64_t, LinkPending> orphans;
    {
        const std::lock_guard<std::mutex> lock(link.mutex);
        if (link.failed) {
            return;  // failed already, or close() is tearing the link down
        }
        link.failed = true;
        orphans = std::move(link.pending);
        link.pending.clear();
    }
    try {
        link.channel->close();  // wakes the demux and any blocked send
    } catch (...) {
    }
    Shard& shard = shards_[link.shard];
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        link.needs_reconnect = true;
        if (std::all_of(shard.replicas.begin(), shard.replicas.end(),
                        [](const auto& replica) { return replica->needs_reconnect; })) {
            shard.down = true;  // the last replica is gone
        }
    }
    window_cv_.notify_all();  // parked submitters must see the desync, not hang
    for (auto& [wire_id, pending] : orphans) {
        const std::shared_ptr<InflightRequest> request = pending.request;
        if (!request->settled.load()) {
            // Failover: replay the retained payload onto a surviving
            // sibling under a FRESH wire id (the dead stream's ids are
            // unknowable; a stale reply must never match the replay).
            // Frames the dead link already delivered are re-owed — the
            // replacement replica re-sends its whole share, and slot
            // rewrites are idempotent (same bytes, disjoint slots).
            const std::size_t attempt = request->failovers.fetch_add(1) + 1;
            if (attempt <= retry_.max_attempts) {
                if (pending.delivered > 0) {
                    request->frames_remaining.fetch_add(pending.delivered);
                }
                const std::uint64_t fresh = next_id_.fetch_add(1, std::memory_order_relaxed);
                if (assign(request, link.shard, fresh)) {
                    stats_.record_failover();
                    shard.stats.record_failover();
                    continue;  // the shard still owes its share, via the sibling
                }
                // No healthy sibling: the shard is down for good (until a
                // reconnect). frames_remaining was re-credited above, which
                // only keeps the (about to be faulted) request from
                // completing — complete() checks settled anyway.
                mark_shard_down(link.shard);
            }
        }
        if (!request->settled.exchange(true)) {
            // A fresh exception object per promise: each future's reader
            // then owns its own, and no reference count on one shared
            // object orders a reader's last access against this thread's
            // release (ThreadSanitizer cannot see libstdc++'s atomics).
            request->promise.set_exception(labeled_exception(link.label, error));
        }
        shard_done_with(request);
    }
}

}  // namespace ens::serve
