#pragma once
// Event-driven serving core and the repo's ONLY host: one reactor thread
// owns EVERY connection fd (level-triggered poll()), so connections-held
// and threads-spawned are decoupled — a ReactorHost sustains 1024+
// concurrent pipelined sessions on a FIXED thread budget:
//
//   reactor thread   accepts (non-blocking, ChannelListener::try_accept)
//                    or adopts (adopt(): an already-connected stream, e.g.
//                    the in-proc InferenceService's socketpair ends),
//                    sends the v4 handshake, does MSG_DONTWAIT framed
//                    reads into per-connection buffers, parses complete
//                    tagged requests and dispatches each as body_count()
//                    (request, body) work items.
//   worker pool      config.worker_threads compute threads, shared by ALL
//                    connections. A worker runs one work item: the
//                    request's one decode if no sibling item has done it
//                    yet, then BodyHost::serve_body (one body's forward -> encode
//                    into the worker's own WireBufferPool -> its tagged
//                    reply) — the reactor decides WHO runs a body, never
//                    WHAT it computes. One request's bodies therefore run
//                    concurrently on idle workers; the last of them to
//                    finish completes the request.
//
// Per-connection windows are enforced by READ INTEREST, not queues: once a
// connection has max_inflight requests admitted, the reactor stops
// reading its fd (interest drops to hangup-only) and TCP flow control
// pushes back on the client without a blocked thread. The aggregate work
// queue is therefore bounded by sum-of-windows x body_count items, never
// by client behavior.
//
// Connection fds stay in BLOCKING mode: the reactor reads with
// MSG_DONTWAIT (per-call non-blocking), while workers reply through the
// ordinary blocking TcpChannel::send_parts — frame assembly, billing and
// the send mutex stay in ONE implementation instead of growing a second,
// nonblocking-write state machine. A worker blocked on a slow client is
// bounded by that client's window and wakes on teardown (close() shuts
// the socket down).
//
// Deployments are version-pinned (serve/deployment.hpp): every accepted
// connection pins the DeploymentManager's current generation and is
// served by those bodies until it closes, so a live bundle hot-swap
// (SIGHUP in serve_daemon) changes what NEW connections handshake and
// nothing else.
//
// Shutdown is a DRAIN, not an abort: shutdown() stops accepting, lets
// every admitted request finish and its reply reach the wire, waits
// `drain_grace` of quiet for requests still in transit on loopback, then
// closes all connections and joins the workers — no client ever sees a
// torn reply (config.drain_timeout bounds a wedged peer).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/deployment.hpp"
#include "serve/remote.hpp"
#include "serve/stats.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {

struct ReactorConfig {
    /// Fixed compute-thread budget shared by every connection. This is
    /// the ONLY thread count that scales with load — and it doesn't
    /// scale with connections.
    std::size_t worker_threads = 4;
    /// Quiet period a drain waits after the last request completes, so
    /// requests already on the wire (sent before the client could learn
    /// of the shutdown) are admitted and answered rather than torn.
    std::chrono::milliseconds drain_grace{200};
    /// Hard bound on the whole drain; a wedged peer cannot hold the
    /// process hostage past this.
    std::chrono::milliseconds drain_timeout{10000};
};

/// The event-driven host. One instance == one reactor thread (the caller
/// of run()) + config.worker_threads workers, serving every connection of
/// one listener, and every adopted channel, from the pinned generations of
/// one DeploymentManager.
class ReactorHost {
public:
    explicit ReactorHost(std::shared_ptr<DeploymentManager> deployments,
                         ReactorConfig config = {});
    ~ReactorHost();

    ReactorHost(const ReactorHost&) = delete;
    ReactorHost& operator=(const ReactorHost&) = delete;

    /// The event loop. Puts the listener in non-blocking mode, spawns the
    /// worker pool, and blocks serving connections until shutdown() (or
    /// the listener being closed externally) triggers a drain; returns
    /// once the drain completes and all workers are joined. Call once.
    void run(split::ChannelListener& listener);

    /// The same loop with no listener: serves adopted channels only, until
    /// shutdown(). The in-proc InferenceService runs its host this way.
    void run();

    /// Hands an already-connected stream to the reactor (thread-safe;
    /// callable before run()). The channel is queued and the loop woken;
    /// the reactor thread then registers it exactly like an accepted
    /// connection — pin, window, handshake, gauges. The caller may keep
    /// its share of the channel to read its traffic counters.
    void adopt(std::shared_ptr<split::TcpChannel> channel);

    /// Requests a graceful drain-and-stop of run() (thread-safe,
    /// idempotent, callable before run() — run() then drains
    /// immediately). Returns without waiting; run() returning is the
    /// completion signal.
    void shutdown();

    /// Operational gauges (connections_held / active_requests / ... plus
    /// the manager's swaps_completed and the fixed worker count).
    GaugeSnapshot gauges() const;

    DeploymentManager& deployments() const { return *deployments_; }

private:
    /// One live connection. The reactor thread owns buffer/pending_ids/
    /// paused; workers touch only the atomics and the (internally
    /// synchronized) channel. Held by shared_ptr so queued work and
    /// completion notices can never dangle across a teardown or an fd
    /// recycle.
    struct Conn {
        std::shared_ptr<split::TcpChannel> channel;
        DeploymentManager::Pinned pinned;
        std::uint32_t window = 1;
        int fd = -1;
        std::string buffer;  // bytes read, not yet parsed into frames
        std::vector<std::uint64_t> pending_ids;  // admitted, not completed
        bool paused = false;  // read interest dropped (window full)
        std::atomic<std::uint32_t> inflight{0};
        std::atomic<bool> dead{false};    // worker saw a failure; tear down
        std::atomic<bool> failed{false};  // ...and it was an error, not a hangup
    };

    /// One admitted request, shared by its body_count() work items. The
    /// first item to run decodes the payload for all of them. Decoding on
    /// a worker, not the reactor thread, keeps the decoded tensor in the
    /// cache of a core that forwards it; a reactor-side decode measurably
    /// raised host CPU per request.
    struct Request {
        const std::shared_ptr<Conn> conn;
        const std::uint64_t id;
        const std::string frame;               // payload at serve::kRequestTagBytes
        std::atomic<std::size_t> bodies_left;  // items not yet finished
        std::atomic<bool> all_replied{true};   // no item failed or skipped
        // The decode runs under call_once and never throws out of it: a
        // failure is kept here and rethrown by every item (ThreadSanitizer's
        // call_once never releases waiters after a throwing callable).
        std::once_flag decoded;
        std::exception_ptr decode_error;
        BodyHost::RequestInput input;  // written once, under `decoded`
    };

    struct WorkItem {
        std::shared_ptr<Request> request;
        std::size_t body = 0;
    };

    /// Completion notice from a worker back to the reactor (also sent for a
    /// failed request: the reactor then sees the connection dead).
    struct Notice {
        std::shared_ptr<Conn> conn;
        std::uint64_t request_id = 0;
    };

    class Poller;

    /// run()'s body; `listener` may be null (adopted channels only).
    void serve(split::ChannelListener* listener);
    void worker_main();
    void accept_ready(split::ChannelListener& listener, Poller& poller);
    /// Registers one connected channel: pin, window, handshake, poller,
    /// gauges. Shared by accept_ready and adopted channels.
    void add_conn(std::shared_ptr<split::TcpChannel> channel, Poller& poller);
    void conn_readable(const std::shared_ptr<Conn>& conn, Poller& poller);
    /// Parses buffered frames and dispatches while the window allows;
    /// updates read interest / paused. Returns false on protocol error
    /// (caller tears the connection down).
    bool parse_and_dispatch(const std::shared_ptr<Conn>& conn, Poller& poller);
    void dispatch(const std::shared_ptr<Conn>& conn, std::uint64_t id, std::string frame);
    /// Closes and forgets a connection; `dropped` counts it in
    /// connections_dropped (an error teardown, not a clean close).
    void teardown(const std::shared_ptr<Conn>& conn, Poller& poller, bool dropped);
    /// Runs one work item; the request's last item also completes it.
    void run_item(WorkItem& item, split::WireBufferPool& reply_pool);
    void notify(std::shared_ptr<Conn> conn, std::uint64_t id);
    /// Registers adopted channels, then handles completion notices.
    void drain_notices(Poller& poller);

    std::shared_ptr<DeploymentManager> deployments_;
    ReactorConfig config_;
    HostGauges gauges_;

    int wake_read_fd_ = -1;
    int wake_write_fd_ = -1;
    std::atomic<bool> stop_requested_{false};

    std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // reactor thread only
    std::chrono::steady_clock::time_point last_activity_;   // reactor thread only

    std::mutex work_mutex_;
    std::condition_variable work_cv_;
    std::deque<WorkItem> work_queue_;
    bool workers_stop_ = false;

    std::mutex notice_mutex_;  // guards notices_ and adopted_
    std::vector<Notice> notices_;
    std::vector<std::shared_ptr<split::TcpChannel>> adopted_;
};

/// Signal plumbing for daemons and fork tests: blocks `signals` in the
/// CONSTRUCTOR (construct before spawning any thread — reactor workers
/// inherit the mask, so no signal is ever delivered to a compute thread)
/// and hands them out synchronously from wait(). This is the supported
/// way to drive ReactorHost from signals: a plain handler could only set
/// a flag, while a sigwait thread may call shutdown()/swap_from_bundle()
/// directly — they are ordinary thread-safe calls, and nothing here runs
/// in async-signal context.
class SignalSet {
public:
    explicit SignalSet(std::initializer_list<int> signals);

    /// Blocks until one of the set's signals arrives and returns its
    /// number (sigwait; never a handler).
    int wait();

private:
    sigset_t set_;
};

}  // namespace ens::serve
