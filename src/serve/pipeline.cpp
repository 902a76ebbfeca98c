#include "serve/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace ens::serve {

// ------------------------------------------------------- error labeling

[[noreturn]] void rethrow_labeled(const std::string& label, const std::exception_ptr& error) {
    try {
        std::rethrow_exception(error);
    } catch (const Error& e) {
        // Error's constructor prepends the code name; drop the one already
        // baked into e.what() so the labeled message carries it once.
        std::string message = e.what();
        const std::string prefix = std::string(error_code_name(e.code())) + ": ";
        if (message.compare(0, prefix.size(), prefix) == 0) {
            message.erase(0, prefix.size());
        }
        throw Error(e.code(), label + ": " + message);
    }
    // Non-ens exceptions (tensor/shape contract violations, ...) propagate
    // unchanged via the rethrow above: they are client-side bugs, not peer
    // failures.
}

std::exception_ptr labeled_exception(const std::string& label, const std::exception_ptr& error) {
    try {
        rethrow_labeled(label, error);
    } catch (...) {
        return std::current_exception();
    }
}

// ------------------------------------------------------------- finishing

InferenceResult finish_request(InflightRequest& request, const core::Selector& selector,
                               nn::Layer& tail, SessionStats& stats) {
    // Merge is already in global body order; combine with the secret
    // selector and finish with the private tail, exactly like the in-proc
    // sequential oracle.
    const Tensor combined =
        selector.n() == 1 ? request.features.front() : selector.apply(request.features);
    InferenceResult result;
    result.logits = tail.forward(combined);
    result.request_id = request.id;
    result.queue_ms = request.queue_ms;  // window-backpressure wait
    result.total_ms = request.submitted.elapsed_ms();
    result.compute_ms = result.total_ms - result.queue_ms;
    stats.record(result.total_ms, result.queue_ms, request.images);
    return result;
}

// ------------------------------------------------------------- pipeline

ShardPipeline::ShardPipeline(std::vector<Endpoint> endpoints, std::size_t total_bodies,
                             std::size_t window, std::string owner, std::string reconnect_hint,
                             Finisher finisher, RetryPolicy retry, SessionStats* session_stats)
    : total_bodies_(total_bodies),
      window_(std::max<std::size_t>(1, window)),
      owner_(std::move(owner)),
      reconnect_hint_(std::move(reconnect_hint)),
      finisher_(std::move(finisher)),
      retry_(retry),
      session_stats_(session_stats) {
    ENS_REQUIRE(!endpoints.empty(), "ShardPipeline: no endpoints");
    ENS_REQUIRE(finisher_ != nullptr, "ShardPipeline: null finisher");
    links_.reserve(endpoints.size());
    // Explicit group ids map to groups in first-appearance order; the
    // kOwnGroup default keeps a link un-replicated (its own 1-member
    // group) — exactly the pre-replica behavior for RemoteSession and the
    // channel-per-shard ShardRouter constructor.
    std::unordered_map<std::size_t, std::size_t> explicit_groups;
    for (Endpoint& endpoint : endpoints) {
        // A null channel is a BORN-FAILED replica: its endpoint could not
        // be dialed at construction time. The link starts in the failed
        // state (no I/O workers) and joins the rotation through the same
        // reconnect() path a mid-session death uses — so a deployment
        // boots degraded instead of refusing while a sibling is healthy.
        auto link = std::make_unique<Link>();
        link->channel = std::move(endpoint.channel);
        link->failed = link->channel == nullptr;
        link->body_begin = endpoint.body_begin;
        link->body_count = endpoint.body_count;
        link->label = std::move(endpoint.label);
        link->stats = endpoint.stats;
        link->index = links_.size();

        std::size_t group_index;
        const std::string group_label =
            endpoint.group_label.empty() ? link->label : endpoint.group_label;
        if (endpoint.group == kOwnGroup) {
            group_index = groups_.size();
            groups_.push_back(Group{link->body_begin, link->body_count, group_label, {}, 0});
        } else {
            const auto it = explicit_groups.find(endpoint.group);
            if (it == explicit_groups.end()) {
                group_index = groups_.size();
                explicit_groups.emplace(endpoint.group, group_index);
                groups_.push_back(Group{link->body_begin, link->body_count, group_label, {}, 0});
            } else {
                group_index = it->second;
                // Replicas of one group must agree on the slice, or a
                // failover would silently swap which bodies answer.
                ENS_REQUIRE(groups_[group_index].body_begin == link->body_begin &&
                                groups_[group_index].body_count == link->body_count,
                            "ShardPipeline: replica '" + link->label +
                                "' disagrees with its group's body slice");
            }
        }
        link->group = group_index;
        groups_[group_index].members.push_back(link->index);
        links_.push_back(std::move(link));
    }
    needs_reconnect_.assign(links_.size(), 0);
    group_down_.assign(groups_.size(), 0);
    for (auto& link : links_) {
        if (link->failed) {
            needs_reconnect_[link->index] = 1;
            continue;
        }
        start_link(*link);
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        // Every group needs one live member at birth; an all-dead group
        // would otherwise refuse submissions with a reconnect hint the
        // caller never saw a failure for.
        ENS_REQUIRE(replicas_healthy(g) > 0,
                    owner_ + ": group '" + groups_[g].label + "' has no reachable replica");
    }
}

ShardPipeline::~ShardPipeline() { close(); }

void ShardPipeline::start_link(Link& link) {
    link.sender = std::thread([this, &link] { sender_loop(link); });
    link.demux = std::thread([this, &link] { demux_loop(link); });
}

bool ShardPipeline::assign(const std::shared_ptr<InflightRequest>& request,
                           std::size_t group_index, std::uint64_t wire_id) {
    Group& group = groups_[group_index];
    std::size_t start;
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        start = group.rr++;
    }
    for (std::size_t k = 0; k < group.members.size(); ++k) {
        Link& link = *links_[group.members[(start + k) % group.members.size()]];
        {
            const std::lock_guard<std::mutex> lock(link.mutex);
            if (link.failed || link.stop) {
                continue;
            }
            // Inserted while the link is healthy: if it fails an instant
            // later, fail_link drains this pending and the request fails
            // over again (bounded by retry_.max_attempts).
            LinkPending pending;
            pending.request = request;
            pending.seen.assign(link.body_count, false);
            link.pending.emplace(wire_id, std::move(pending));
            link.queue.push_back(SendItem{wire_id, request->payload});
        }
        link.send_cv.notify_one();
        return true;
    }
    return false;
}

void ShardPipeline::mark_group_down(std::size_t group_index) {
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        group_down_[group_index] = 1;
    }
    window_cv_.notify_all();
}

std::future<InferenceResult> ShardPipeline::submit(SharedPayload payload, std::int64_t images,
                                                   Stopwatch submitted) {
    ENS_REQUIRE(payload != nullptr && static_cast<bool>(*payload),
                "ShardPipeline::submit: empty payload");
    auto request = std::make_shared<InflightRequest>();
    {
        const Stopwatch parked;
        std::unique_lock<std::mutex> lock(table_mutex_);
        const auto check_usable = [this] {
            if (closed_) {
                throw Error(ErrorCode::channel_closed, owner_ + ": session closed");
            }
            for (std::size_t g = 0; g < group_down_.size(); ++g) {
                if (group_down_[g]) {
                    throw Error(ErrorCode::channel_closed,
                                owner_ + ": " + groups_[g].label +
                                    " is desynchronized by an earlier failure; " +
                                    reconnect_hint_);
                }
            }
        };
        check_usable();
        // Window backpressure: park until an in-flight slot retires. A
        // group going down while parked also wakes us — re-check so the
        // caller gets the desync refusal, not a hang.
        window_cv_.wait(lock, [this] {
            if (closed_ || table_.size() < window_) {
                return true;
            }
            for (const unsigned char flag : group_down_) {
                if (flag) {
                    return true;
                }
            }
            return false;
        });
        check_usable();
        request->id = next_id_.fetch_add(1, std::memory_order_relaxed);
        request->images = images;
        request->payload = payload;
        request->features.assign(total_bodies_, Tensor{});
        request->frames_remaining.store(total_bodies_);
        request->groups_remaining.store(groups_.size());
        // total_ms keeps the owner's clock (spans the head phase too);
        // time parked on the full window is this request's queue share.
        request->submitted = submitted;
        request->queue_ms = parked.elapsed_ms();
        table_.emplace(request->id, request);
    }
    std::future<InferenceResult> future = request->promise.get_future();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (assign(request, g, request->id)) {
            continue;
        }
        // Every replica of this group failed between the usability check
        // and here: this group will never deliver, so fault the request
        // now instead of leaving its future hanging — and publish the
        // desync BEFORE faulting, so a caller observing this fault (and
        // then polling group_down/needs_reconnect) must not race it.
        mark_group_down(g);
        const auto error = labeled_exception(
            groups_[g].label, std::make_exception_ptr(Error(
                                  ErrorCode::channel_closed, "link failed before the request "
                                                             "could be sent")));
        if (!request->settled.exchange(true)) {
            request->promise.set_exception(error);
        }
        group_done_with(request);
    }
    return future;
}

std::size_t ShardPipeline::inflight() const {
    const std::lock_guard<std::mutex> lock(table_mutex_);
    return table_.size();
}

bool ShardPipeline::needs_reconnect(std::size_t link) const {
    ENS_REQUIRE(link < links_.size(), "ShardPipeline::needs_reconnect: link out of range");
    const std::lock_guard<std::mutex> lock(table_mutex_);
    return needs_reconnect_[link] != 0;
}

std::size_t ShardPipeline::group_of_link(std::size_t link) const {
    ENS_REQUIRE(link < links_.size(), "ShardPipeline::group_of_link: link out of range");
    return links_[link]->group;
}

bool ShardPipeline::group_down(std::size_t group) const {
    ENS_REQUIRE(group < groups_.size(), "ShardPipeline::group_down: group out of range");
    const std::lock_guard<std::mutex> lock(table_mutex_);
    return group_down_[group] != 0;
}

std::size_t ShardPipeline::replicas_configured(std::size_t group) const {
    ENS_REQUIRE(group < groups_.size(), "ShardPipeline::replicas_configured: group out of range");
    return groups_[group].members.size();
}

std::size_t ShardPipeline::replicas_healthy(std::size_t group) const {
    ENS_REQUIRE(group < groups_.size(), "ShardPipeline::replicas_healthy: group out of range");
    const std::lock_guard<std::mutex> lock(table_mutex_);
    std::size_t healthy = 0;
    for (const std::size_t member : groups_[group].members) {
        if (!needs_reconnect_[member]) {
            ++healthy;
        }
    }
    return healthy;
}

void ShardPipeline::reconnect(std::size_t index, std::unique_ptr<split::Channel> channel) {
    ENS_REQUIRE(index < links_.size(), "ShardPipeline::reconnect: link out of range");
    ENS_REQUIRE(channel != nullptr, "ShardPipeline::reconnect: null channel");
    Link& link = *links_[index];
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        ENS_REQUIRE(!closed_, "ShardPipeline::reconnect on a closed pipeline");
        ENS_REQUIRE(needs_reconnect_[index] != 0,
                    "ShardPipeline::reconnect: link is healthy; nothing to replace");
    }
    // The failed link's workers exited when fail_link closed the channel;
    // join so the new workers never coexist with the old ones.
    if (link.sender.joinable()) {
        link.sender.join();
    }
    if (link.demux.joinable()) {
        link.demux.join();
    }
    {
        const std::lock_guard<std::mutex> lock(link.mutex);
        link.channel = std::move(channel);
        link.failed = false;
        link.stop = false;
        link.queue.clear();
        link.pending.clear();
        link.channel->set_recv_timeout(
            std::chrono::milliseconds(recv_timeout_ms_.load()));
    }
    start_link(link);
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        needs_reconnect_[index] = 0;
        group_down_[link.group] = 0;  // the group has a healthy member again
    }
    window_cv_.notify_all();
}

void ShardPipeline::set_recv_timeout(std::chrono::milliseconds timeout) {
    recv_timeout_ms_.store(timeout.count());
    for (auto& link : links_) {
        const std::lock_guard<std::mutex> lock(link->mutex);
        if (!link->failed) {
            link->channel->set_recv_timeout(timeout);
        }
    }
}

split::TrafficStats ShardPipeline::channel_traffic(std::size_t index) const {
    ENS_REQUIRE(index < links_.size(), "ShardPipeline::channel_traffic: link out of range");
    Link& link = *links_[index];
    const std::lock_guard<std::mutex> lock(link.mutex);
    // A born-failed replica has no channel (and so no traffic) yet.
    return link.channel ? link.channel->stats() : split::TrafficStats{};
}

void ShardPipeline::close() {
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        if (closed_) {
            return;
        }
        closed_ = true;
    }
    window_cv_.notify_all();
    for (auto& link : links_) {
        {
            const std::lock_guard<std::mutex> lock(link->mutex);
            link->stop = true;
        }
        link->send_cv.notify_all();
        try {
            const std::lock_guard<std::mutex> lock(link->mutex);
            if (link->channel) {
                link->channel->close();
            }
        } catch (...) {
        }
    }
    for (auto& link : links_) {
        if (link->sender.joinable()) {
            link->sender.join();
        }
        if (link->demux.joinable()) {
            link->demux.join();
        }
    }
    // Workers are gone; fault whatever was still in flight so no future
    // ever hangs past close().
    for (auto& link : links_) {
        std::unordered_map<std::uint64_t, LinkPending> orphans;
        {
            const std::lock_guard<std::mutex> lock(link->mutex);
            orphans = std::move(link->pending);
            link->pending.clear();
            link->queue.clear();
        }
        const auto error = labeled_exception(
            link->label, std::make_exception_ptr(Error(ErrorCode::channel_closed,
                                                       "session closed with the request still "
                                                       "in flight")));
        for (auto& [id, pending] : orphans) {
            if (!pending.request->settled.exchange(true)) {
                pending.request->promise.set_exception(error);
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

void ShardPipeline::sender_loop(Link& link) {
    for (;;) {
        SendItem item;
        {
            std::unique_lock<std::mutex> lock(link.mutex);
            link.send_cv.wait(lock, [&link] { return link.stop || !link.queue.empty(); });
            if (link.stop) {
                return;
            }
            item = std::move(link.queue.front());
            link.queue.pop_front();
            const auto it = link.pending.find(item.id);
            if (it != link.pending.end()) {
                it->second.sent = true;
                it->second.started.reset();  // shard stats: send -> last map
            }
        }
        unsigned char tag[kRequestTagBytes];
        encode_request_tag(item.id, tag);
        try {
            link.channel->send_parts(
                std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                (**item.payload).view());
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(link.mutex);
                if (link.stop) {
                    return;
                }
            }
            fail_link(link, std::current_exception());
            return;
        }
    }
}

void ShardPipeline::demux_loop(Link& link) {
    for (;;) {
        std::string frame;
        try {
            frame = link.channel->recv();
        } catch (const Error& e) {
            {
                const std::lock_guard<std::mutex> lock(link.mutex);
                if (link.stop) {
                    return;
                }
            }
            if (e.code() == ErrorCode::channel_timeout) {
                // The demux recv runs CONTINUOUSLY, so a recv timeout is
                // only a failure when some pending request has actually
                // waited that long — an idle connection (or one whose
                // request was submitted moments before an old recv's clock
                // ran out) just re-arms. A mid-frame timeout poisoned the
                // channel already; the next recv surfaces channel_closed.
                double oldest_wait_ms = 0.0;
                bool idle = true;
                {
                    const std::lock_guard<std::mutex> lock(link.mutex);
                    for (const auto& [id, pending] : link.pending) {
                        if (pending.sent) {
                            idle = false;
                            oldest_wait_ms =
                                std::max(oldest_wait_ms, pending.started.elapsed_ms());
                        }
                    }
                }
                const long long cap_ms = recv_timeout_ms_.load();
                if (idle || cap_ms <= 0 || oldest_wait_ms < static_cast<double>(cap_ms)) {
                    continue;
                }
            }
            fail_link(link, std::current_exception());
            return;
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(link.mutex);
                if (link.stop) {
                    return;
                }
            }
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

void ShardPipeline::handle_frame(Link& link, const std::string& frame) {
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
        if (tag.body_seq >= link.body_count) {
            throw Error(ErrorCode::protocol_error,
                        "reply body index " + std::to_string(tag.body_seq) +
                            " outside the host's " + std::to_string(link.body_count) +
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
        // Groups write disjoint global slots, so cross-group writes need no
        // lock — but a failover replay re-delivers THIS group's slots, so
        // the write stays under the link mutex: fail_link drains pending
        // under the same mutex before it replays, which strictly orders a
        // dying link's last write before the sibling's rewrite.
        request->features[link.body_begin + tag.body_seq] = std::move(decoded);
        if (pending.delivered == link.body_count) {
            share_done = true;
            if (link.stats != nullptr) {
                link.stats->record(pending.started.elapsed_ms(), /*queue_ms=*/0.0,
                                   request->images);
            }
            link.pending.erase(it);
        }
    }

    // The frames_remaining decrement publishes the slot write to the
    // completing thread.
    if (request->frames_remaining.fetch_sub(1) == 1) {
        complete(request);
    }
    if (share_done) {
        group_done_with(request);
    }
}

void ShardPipeline::complete(const std::shared_ptr<InflightRequest>& request) {
    // The finisher runs the shared selector/tail layers, whose forward
    // caches are not thread-safe — one completion at a time.
    const std::lock_guard<std::mutex> lock(finish_mutex_);
    if (request->settled.exchange(true)) {
        return;  // a link failure faulted this request first
    }
    try {
        request->promise.set_value(finisher_(*request));
    } catch (...) {
        request->promise.set_exception(std::current_exception());
    }
}

void ShardPipeline::group_done_with(const std::shared_ptr<InflightRequest>& request) {
    if (request->groups_remaining.fetch_sub(1) == 1) {
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

void ShardPipeline::fail_link(Link& link, const std::exception_ptr& error) {
    std::unordered_map<std::uint64_t, LinkPending> orphans;
    {
        const std::lock_guard<std::mutex> lock(link.mutex);
        if (link.failed) {
            return;  // the other worker of this link got here first
        }
        link.failed = true;
        link.stop = true;
        orphans = std::move(link.pending);
        link.pending.clear();
        link.queue.clear();
    }
    link.send_cv.notify_all();
    try {
        link.channel->close();  // wakes this link's other worker
    } catch (...) {
    }
    bool last_replica = true;
    {
        const std::lock_guard<std::mutex> lock(table_mutex_);
        needs_reconnect_[link.index] = 1;
        for (const std::size_t member : groups_[link.group].members) {
            if (!needs_reconnect_[member]) {
                last_replica = false;
                break;
            }
        }
        if (last_replica) {
            group_down_[link.group] = 1;
        }
    }
    window_cv_.notify_all();  // parked submitters must see the desync, not hang
    const std::exception_ptr labeled = labeled_exception(link.label, error);
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
                if (assign(request, link.group, fresh)) {
                    failovers_total_.fetch_add(1);
                    if (session_stats_ != nullptr) {
                        session_stats_->record_failover();
                    }
                    if (link.stats != nullptr) {
                        link.stats->record_failover();
                    }
                    continue;  // the group still owes its share, via the sibling
                }
                // No healthy sibling: the group is down for good (until a
                // reconnect). frames_remaining was re-credited above, which
                // only keeps the (about to be faulted) request from
                // completing — complete() checks settled anyway.
                mark_group_down(link.group);
            }
        }
        if (!request->settled.exchange(true)) {
            request->promise.set_exception(labeled);
        }
        group_done_with(request);
    }
}

}  // namespace ens::serve
