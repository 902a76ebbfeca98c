#include "serve/reactor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "serve/protocol.hpp"
#include "split/codec.hpp"

namespace ens::serve {

namespace {

// Same stream-desync bound as TcpChannel: a frame header this large is a
// corrupt or hostile peer, not a feature map.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 30;

constexpr std::size_t kFrameHeaderBytes = 8;

std::uint64_t decode_frame_header(const unsigned char* in) {
    std::uint64_t size = 0;
    for (int i = 0; i < 8; ++i) {
        size |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    }
    return size;
}

void set_nonblocking_fd(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
        (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
}

}  // namespace

// ------------------------------------------------------------- Poller
// Readiness backend over poll(). Level-triggered; hangup/error conditions
// are ALWAYS reported, even for fds whose read interest was dropped — a
// paused (window-full) connection whose peer dies must still tear down
// instead of sitting in the map forever. The pollfd array persists across
// waits (an fd -> slot index keeps edits O(1)), so a wake costs the
// poll() itself, not a rebuild over every held connection.

class ReactorHost::Poller {
public:
    void add(int fd) {
        slot_[fd] = pollfds_.size();
        pollfds_.push_back(pollfd{fd, POLLIN, 0});
    }

    void set_read(int fd, bool enabled) {
        const auto it = slot_.find(fd);
        if (it != slot_.end()) {
            pollfds_[it->second].events = enabled ? POLLIN : 0;  // HUP/ERR always reported
        }
    }

    /// Swap-remove: the last entry moves into the freed slot.
    void remove(int fd) {
        const auto it = slot_.find(fd);
        if (it == slot_.end()) {
            return;
        }
        const std::size_t slot = it->second;
        slot_.erase(it);
        if (slot + 1 != pollfds_.size()) {
            pollfds_[slot] = pollfds_.back();
            slot_[pollfds_[slot].fd] = slot;
        }
        pollfds_.pop_back();
    }

    struct Event {
        int fd = -1;
        bool readable = false;
        bool hangup = false;
    };

    void wait(std::vector<Event>& out, int timeout_ms) {
        out.clear();
        const int n = ::poll(pollfds_.data(), pollfds_.size(), timeout_ms);
        if (n < 0) {
            if (errno == EINTR) {
                return;
            }
            throw Error(ErrorCode::io_error,
                        std::string("ReactorHost: poll: ") + std::strerror(errno));
        }
        for (const pollfd& pfd : pollfds_) {
            if (pfd.revents == 0) {
                continue;
            }
            Event event;
            event.fd = pfd.fd;
            event.readable = (pfd.revents & POLLIN) != 0;
            event.hangup = (pfd.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
            out.push_back(event);
        }
    }

private:
    std::vector<pollfd> pollfds_;                // what poll() watches
    std::unordered_map<int, std::size_t> slot_;  // fd -> index in pollfds_
};

// --------------------------------------------------------- ReactorHost

ReactorHost::ReactorHost(std::shared_ptr<DeploymentManager> deployments, ReactorConfig config)
    : deployments_(std::move(deployments)), config_(config) {
    ENS_REQUIRE(deployments_ != nullptr, "ReactorHost: null deployment manager");
    ENS_REQUIRE(config_.worker_threads >= 1, "ReactorHost: need at least one worker thread");
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
        throw Error(ErrorCode::io_error,
                    std::string("ReactorHost: pipe: ") + std::strerror(errno));
    }
    wake_read_fd_ = fds[0];
    wake_write_fd_ = fds[1];
    // Non-blocking both ways: a full pipe means a wake-up is already
    // pending, so dropping the byte is correct, not lossy.
    set_nonblocking_fd(wake_read_fd_);
    set_nonblocking_fd(wake_write_fd_);
}

ReactorHost::~ReactorHost() {
    (void)::close(wake_read_fd_);
    (void)::close(wake_write_fd_);
}

void ReactorHost::shutdown() {
    stop_requested_.store(true);
    const unsigned char byte = 0;
    (void)::write(wake_write_fd_, &byte, 1);
}

GaugeSnapshot ReactorHost::gauges() const {
    GaugeSnapshot snap = gauges_.snapshot();
    snap.swaps_completed = deployments_->swaps_completed();
    snap.worker_threads = config_.worker_threads;
    return snap;
}

void ReactorHost::notify(std::shared_ptr<Conn> conn, std::uint64_t id) {
    {
        const std::lock_guard<std::mutex> lock(notice_mutex_);
        notices_.push_back(Notice{std::move(conn), id});
    }
    const unsigned char byte = 0;
    (void)::write(wake_write_fd_, &byte, 1);
}

void ReactorHost::run_item(WorkItem& item, split::WireBufferPool& reply_pool) {
    Request& request = *item.request;
    Conn& conn = *request.conn;
    bool replied = false;
    if (!conn.dead.load()) {
        try {
            std::call_once(request.decoded, [&request] {
                try {
                    request.input = BodyHost::decode_request(
                        std::string_view(request.frame).substr(kRequestTagBytes));
                } catch (...) {
                    request.decode_error = std::current_exception();
                }
            });
            if (request.decode_error) {
                std::rethrow_exception(request.decode_error);
            }
            conn.pinned.host->serve_body(request.id, item.body, request.input, reply_pool,
                                         *conn.channel);
            replied = true;
        } catch (const Error& e) {
            // channel_closed here is the reactor (or the peer) tearing
            // the connection down with requests still admitted —
            // normal pipelined teardown, not worth a log line.
            if (e.code() != ErrorCode::channel_closed) {
                ENS_LOG(LogLevel::kWarn)
                    << "ReactorHost: request failed, dropping connection: " << e.what();
                conn.failed.store(true);
            }
            conn.dead.store(true);
        } catch (const std::exception& e) {
            ENS_LOG(LogLevel::kWarn)
                << "ReactorHost: request failed, dropping connection: " << e.what();
            conn.failed.store(true);
            conn.dead.store(true);
        }
    }
    if (!replied) {
        request.all_replied.store(false);
    }
    if (request.bodies_left.fetch_sub(1) != 1) {
        return;  // a sibling body of this request is still running
    }
    conn.inflight.fetch_sub(1);
    gauges_.active_requests.fetch_sub(1);
    if (request.all_replied.load()) {
        gauges_.requests_served.fetch_add(1);
    }
    notify(request.conn, request.id);
}

void ReactorHost::worker_main() {
    // Each worker owns its reply pool: leases never cross threads, so the
    // pool needs no sharing discipline and hot buffers stay warm per
    // worker.
    split::WireBufferPool reply_pool;
    for (;;) {
        WorkItem item;
        {
            std::unique_lock<std::mutex> lock(work_mutex_);
            work_cv_.wait(lock, [&] { return workers_stop_ || !work_queue_.empty(); });
            if (work_queue_.empty()) {
                return;  // stop + drained
            }
            item = std::move(work_queue_.front());
            work_queue_.pop_front();
        }
        run_item(item, reply_pool);
    }
}

void ReactorHost::dispatch(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                           std::string frame) {
    const std::size_t bodies = conn->pinned.host->body_count();
    const auto request = std::make_shared<Request>(conn, id, std::move(frame), bodies);
    conn->inflight.fetch_add(1);
    gauges_.active_requests.fetch_add(1);
    {
        const std::lock_guard<std::mutex> lock(work_mutex_);
        for (std::size_t body = 0; body < bodies; ++body) {
            work_queue_.push_back(WorkItem{request, body});
        }
    }
    // One wake-up per item, capped by the pool: a worker that finds the
    // queue non-empty keeps draining it without another signal.
    for (std::size_t i = 0; i < std::min(bodies, config_.worker_threads); ++i) {
        work_cv_.notify_one();
    }
}

bool ReactorHost::parse_and_dispatch(const std::shared_ptr<Conn>& conn, Poller& poller) {
    while (!conn->dead.load() && conn->inflight.load() < conn->window) {
        if (conn->buffer.size() < kFrameHeaderBytes) {
            break;
        }
        const std::uint64_t payload_size = decode_frame_header(
            reinterpret_cast<const unsigned char*>(conn->buffer.data()));
        if (payload_size > kMaxFrameBytes) {
            ENS_LOG(LogLevel::kWarn) << "ReactorHost: implausible frame length " << payload_size
                                     << " (stream desynced?), dropping connection";
            return false;
        }
        const std::size_t total = kFrameHeaderBytes + static_cast<std::size_t>(payload_size);
        if (conn->buffer.size() < total) {
            break;
        }
        std::string frame = conn->buffer.substr(kFrameHeaderBytes, total - kFrameHeaderBytes);
        conn->buffer.erase(0, total);
        std::uint64_t id = 0;
        try {
            std::string_view payload;
            id = parse_request_frame(frame, payload);
        } catch (const Error& e) {
            ENS_LOG(LogLevel::kWarn) << "ReactorHost: " << e.what() << ", dropping connection";
            return false;
        }
        if (std::find(conn->pending_ids.begin(), conn->pending_ids.end(), id) !=
            conn->pending_ids.end()) {
            ENS_LOG(LogLevel::kWarn)
                << "ReactorHost: duplicate in-flight request id " << id
                << " (hostile or desynchronized client), dropping connection";
            return false;
        }
        conn->pending_ids.push_back(id);
        last_activity_ = std::chrono::steady_clock::now();
        dispatch(conn, id, std::move(frame));
    }
    // Window full (or a failure pending): drop read interest so TCP flow
    // control backpressures the client; completions re-arm via notices.
    const bool should_pause = conn->inflight.load() >= conn->window;
    if (should_pause != conn->paused) {
        conn->paused = should_pause;
        poller.set_read(conn->fd, !should_pause);
    }
    return true;
}

void ReactorHost::conn_readable(const std::shared_ptr<Conn>& conn, Poller& poller) {
    // Read until EAGAIN (level-triggered, so a capped read would re-report
    // — but draining the socket now saves wake-ups). The fd stays
    // blocking; MSG_DONTWAIT makes just these reads non-blocking.
    char chunk[64 * 1024];
    for (;;) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n > 0) {
            conn->buffer.append(chunk, static_cast<std::size_t>(n));
            last_activity_ = std::chrono::steady_clock::now();
            // Parse as we go: a window-full connection must stop reading
            // even with more bytes pending in the socket.
            if (!parse_and_dispatch(conn, poller)) {
                teardown(conn, poller, /*dropped=*/true);
                return;
            }
            if (conn->paused) {
                return;
            }
            continue;
        }
        if (n == 0) {
            // Clean EOF: the client is done with this connection.
            teardown(conn, poller, /*dropped=*/false);
            return;
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return;
        }
        if (errno != ECONNRESET) {
            ENS_LOG(LogLevel::kWarn)
                << "ReactorHost: recv failed: " << std::strerror(errno)
                << ", dropping connection";
        }
        teardown(conn, poller, /*dropped=*/true);
        return;
    }
}

void ReactorHost::accept_ready(split::ChannelListener& listener, Poller& poller) {
    for (;;) {
        std::unique_ptr<split::TcpChannel> channel;
        try {
            channel = listener.try_accept();
        } catch (const Error&) {
            // Listener closed (or hard accept failure) underneath us.
            // Trigger the drain ourselves: a dead listener fd stays
            // readable forever, and without a stop this loop would spin on
            // it instead of ever blocking again.
            stop_requested_.store(true);
            return;
        }
        if (channel == nullptr) {
            return;
        }
        add_conn(std::move(channel), poller);
    }
}

void ReactorHost::add_conn(std::shared_ptr<split::TcpChannel> channel, Poller& poller) {
    auto conn = std::make_shared<Conn>();
    conn->pinned = deployments_->pin();
    conn->window = static_cast<std::uint32_t>(conn->pinned.host->max_inflight());
    conn->fd = channel->fd();
    conn->channel = std::move(channel);
    try {
        // Blocking send is fine here: the socket buffer of a fresh
        // connection trivially holds a 32 B handshake.
        conn->channel->send(encode_handshake(conn->pinned.host->host_info()));
    } catch (const std::exception& e) {
        ENS_LOG(LogLevel::kWarn) << "ReactorHost: handshake send failed: " << e.what();
        return;  // conn (and its channel) die here
    }
    conns_[conn->fd] = conn;
    poller.add(conn->fd);
    gauges_.connections_held.fetch_add(1);
    gauges_.connections_total.fetch_add(1);
    last_activity_ = std::chrono::steady_clock::now();
}

void ReactorHost::adopt(std::shared_ptr<split::TcpChannel> channel) {
    ENS_REQUIRE(channel != nullptr, "ReactorHost::adopt: null channel");
    {
        const std::lock_guard<std::mutex> lock(notice_mutex_);
        adopted_.push_back(std::move(channel));
    }
    const unsigned char byte = 0;
    (void)::write(wake_write_fd_, &byte, 1);
}

void ReactorHost::teardown(const std::shared_ptr<Conn>& conn, Poller& poller, bool dropped) {
    if (conns_.erase(conn->fd) == 0) {
        return;  // already torn down (e.g. dead notice after a read error)
    }
    poller.remove(conn->fd);
    conn->dead.store(true);
    try {
        conn->channel->close();  // wakes any worker blocked mid-send
    } catch (...) {
    }
    gauges_.connections_held.fetch_sub(1);
    if (dropped) {
        gauges_.connections_dropped.fetch_add(1);
    }
    // The Conn object itself (and the fd it reserves) lives until the
    // last queued WorkItem / Notice referencing it is processed.
}

void ReactorHost::drain_notices(Poller& poller) {
    std::vector<Notice> batch;
    std::vector<std::shared_ptr<split::TcpChannel>> adopted;
    {
        const std::lock_guard<std::mutex> lock(notice_mutex_);
        batch.swap(notices_);
        adopted.swap(adopted_);
    }
    for (std::shared_ptr<split::TcpChannel>& channel : adopted) {
        add_conn(std::move(channel), poller);
    }
    for (Notice& notice : batch) {
        last_activity_ = std::chrono::steady_clock::now();
        auto& ids = notice.conn->pending_ids;
        ids.erase(std::remove(ids.begin(), ids.end(), notice.request_id), ids.end());
        if (conns_.find(notice.conn->fd) == conns_.end() ||
            conns_[notice.conn->fd] != notice.conn) {
            continue;  // already gone (or the fd was recycled by a new conn)
        }
        if (notice.conn->dead.load()) {
            teardown(notice.conn, poller, notice.conn->failed.load());
            continue;
        }
        // A freed window slot may unblock frames already buffered, and
        // re-arms read interest if the connection was paused.
        if (!parse_and_dispatch(notice.conn, poller)) {
            teardown(notice.conn, poller, /*dropped=*/true);
        }
    }
}

void ReactorHost::run() { serve(nullptr); }

void ReactorHost::run(split::ChannelListener& listener) {
    listener.set_nonblocking(true);
    serve(&listener);
}

void ReactorHost::serve(split::ChannelListener* listener) {
    Poller poller;
    poller.add(wake_read_fd_);
    if (listener != nullptr) {
        poller.add(listener->fd());
    }

    {
        const std::lock_guard<std::mutex> lock(work_mutex_);
        workers_stop_ = false;
    }
    std::vector<std::thread> workers;
    workers.reserve(config_.worker_threads);
    for (std::size_t i = 0; i < config_.worker_threads; ++i) {
        workers.emplace_back([this] { worker_main(); });
    }

    last_activity_ = std::chrono::steady_clock::now();
    bool draining = false;
    std::chrono::steady_clock::time_point drain_deadline{};
    std::vector<Poller::Event> events;

    for (;;) {
        // While draining, poll on a short tick so the quiet-period check
        // below runs even with no events arriving.
        poller.wait(events, draining ? 20 : -1);
        for (const Poller::Event& event : events) {
            if (event.fd == wake_read_fd_) {
                char sink[256];
                while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
                }
                continue;
            }
            if (listener != nullptr && event.fd == listener->fd()) {
                if (!draining && event.readable) {
                    accept_ready(*listener, poller);
                }
                continue;
            }
            const auto it = conns_.find(event.fd);
            if (it == conns_.end()) {
                continue;  // torn down earlier in this same batch
            }
            const std::shared_ptr<Conn> conn = it->second;
            if (event.readable) {
                conn_readable(conn, poller);
            } else if (event.hangup) {
                // Hangup-only: the peer left while this connection was
                // paused (read interest off). Without this branch a
                // window-full dead peer would sit in the map forever.
                teardown(conn, poller, /*dropped=*/false);
            }
        }
        drain_notices(poller);

        if (!draining && stop_requested_.load()) {
            draining = true;
            drain_deadline = std::chrono::steady_clock::now() + config_.drain_timeout;
            if (listener != nullptr) {
                poller.remove(listener->fd());  // stop accepting; keep serving
            }
            last_activity_ = std::chrono::steady_clock::now();
        }
        if (draining) {
            const auto now = std::chrono::steady_clock::now();
            const bool idle = gauges_.active_requests.load() == 0;
            if ((idle && now - last_activity_ >= config_.drain_grace) || now >= drain_deadline) {
                break;
            }
        }
    }

    // Drain complete (or deadline hit): close every connection — which
    // also unblocks any worker stuck sending to a wedged peer — then stop
    // and join the fixed pool.
    std::vector<std::shared_ptr<Conn>> remaining;
    remaining.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) {
        remaining.push_back(conn);
    }
    for (const std::shared_ptr<Conn>& conn : remaining) {
        teardown(conn, poller, /*dropped=*/false);
    }
    {
        const std::lock_guard<std::mutex> lock(work_mutex_);
        workers_stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers) {
        worker.join();
    }
}

// ------------------------------------------------------------ SignalSet

SignalSet::SignalSet(std::initializer_list<int> signals) {
    sigemptyset(&set_);
    for (const int signo : signals) {
        sigaddset(&set_, signo);
    }
    // Block (don't handle): the signals become fetchable by wait() and
    // are inherited as blocked by every thread spawned AFTER this — which
    // is why daemons must construct the SignalSet before the reactor.
    if (::pthread_sigmask(SIG_BLOCK, &set_, nullptr) != 0) {
        throw Error(ErrorCode::io_error, "SignalSet: pthread_sigmask failed");
    }
}

int SignalSet::wait() {
    for (;;) {
        int signo = 0;
        const int rc = ::sigwait(&set_, &signo);
        if (rc == 0) {
            return signo;
        }
        if (rc != EINTR) {
            throw Error(ErrorCode::io_error,
                        std::string("SignalSet: sigwait: ") + std::strerror(rc));
        }
    }
}

}  // namespace ens::serve
