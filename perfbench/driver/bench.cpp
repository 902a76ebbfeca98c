// One benchmark run: boot the workload's hosts, warm up, drive load for the
// run's seconds, check every reply against the oracle, report.
//
// Untraced (--trace 0): hosts are serve_daemon --reactor processes and the
// end-to-end metrics are printed. Traced (--trace 1): an untraced phase
// first, then the same load against traced hosts (perfbench_driver host)
// with the client head and tail wrapped in TimedLayers; the per-layer
// metrics and the tracing overhead (traced versus untraced) are printed.
//
// Latency samples are the benchmark's own, taken only inside the timed
// window: a closed loop reports compute_ms (submit to logits, minus the
// time submit() waited on a full window); an open loop reports the time
// from each request's scheduled send to its logits, (submit start - due) +
// total_ms, so a stall is charged to every request it delays.

#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <time.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "process.hpp"
#include "serve/bundle.hpp"
#include "serve/protocol.hpp"
#include "serve/remote.hpp"
#include "serve/shard_router.hpp"
#include "split/codec.hpp"
#include "split/tcp_channel.hpp"
#include "tensor/gemm_kernel.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace ens;

namespace {

constexpr auto kBootTimeout = std::chrono::seconds(60);
constexpr auto kHandshakeTimeout = std::chrono::seconds(30);
constexpr auto kRequestTimeout = std::chrono::seconds(60);
constexpr std::size_t kMaxBodyLayers = 9;  // 8 BasicBlocks + GlobalAvgPool
constexpr std::size_t kReportedShards = 2;

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
    return static_cast<double>(to_ns - from_ns) * 1e-6;
}

double mean(double sum, std::size_t count) {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// Linear-interpolated percentile of unsorted `values` (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto low = static_cast<std::size_t>(std::floor(rank));
    const std::size_t high = std::min(low + 1, values.size() - 1);
    return values[low] + (values[high] - values[low]) * (rank - static_cast<double>(low));
}

// ------------------------------------------------------------ client

/// Client-side channel decorator counting what the host sends back (the
/// library bills only the sending side). Billing of the uplink stays with
/// the wrapped transport. Reply tags are protocol framing and, following
/// the library's rule, not billed.
class MeteredChannel final : public split::Channel {
public:
    explicit MeteredChannel(std::unique_ptr<split::Channel> inner) : inner_(std::move(inner)) {}

    void send(std::string message) override { inner_->send(std::move(message)); }
    void send_parts(std::string_view header, std::string_view payload) override {
        inner_->send_parts(header, payload);
    }
    std::string recv() override {
        std::string frame = inner_->recv();
        frames_.fetch_add(1, std::memory_order_relaxed);
        bytes_.fetch_add(frame.size() > serve::kReplyTagBytes
                             ? frame.size() - serve::kReplyTagBytes
                             : 0,
                         std::memory_order_relaxed);
        return frame;
    }
    bool has_pending() const override { return inner_->has_pending(); }
    void close() override { inner_->close(); }
    void set_recv_timeout(std::chrono::milliseconds timeout) override {
        inner_->set_recv_timeout(timeout);
    }
    split::TrafficStats stats() const override { return inner_->stats(); }
    void reset_stats() override { inner_->reset_stats(); }

    split::TrafficStats received() const {
        return split::TrafficStats{frames_.load(std::memory_order_relaxed),
                                   bytes_.load(std::memory_order_relaxed)};
    }

private:
    std::unique_ptr<split::Channel> inner_;
    std::atomic<std::uint64_t> frames_{0};
    std::atomic<std::uint64_t> bytes_{0};
};

/// One connection's worth of client: the private half restored from the
/// bundle's CLIENT.ens, and a RemoteSession (one host) or a ShardRouter.
class Client {
public:
    Client(const WorkloadSpec& spec, const std::string& bundle_dir,
           const std::vector<std::uint16_t>& ports, SpanLog* log)
        : artifacts_(serve::load_bundle_client(bundle_dir, kBodies)) {
        if (log != nullptr) {
            auto head = std::make_unique<TimedLayer>(std::move(artifacts_.head), *log,
                                                     log->intern("head"));
            auto tail = std::make_unique<TimedLayer>(std::move(artifacts_.tail), *log,
                                                     log->intern("tail"),
                                                     /*index_outputs=*/true);
            head_probe_ = head.get();
            tail_probe_ = tail.get();
            artifacts_.head = std::move(head);
            artifacts_.tail = std::move(tail);
        }
        std::vector<std::unique_ptr<split::Channel>> channels;
        for (const std::uint16_t port : ports) {
            auto channel = std::make_unique<MeteredChannel>(split::tcp_connect("127.0.0.1", port));
            meters_.push_back(channel.get());
            channels.push_back(std::move(channel));
        }
        if (channels.size() == 1) {
            session_ = std::make_unique<serve::RemoteSession>(
                std::move(channels.front()), *artifacts_.head, nullptr, *artifacts_.tail,
                artifacts_.selector, spec.wire, kHandshakeTimeout, spec.window);
            session_->set_recv_timeout(kRequestTimeout);
        } else {
            router_ = std::make_unique<serve::ShardRouter>(
                std::move(channels), *artifacts_.head, nullptr, *artifacts_.tail,
                artifacts_.selector, spec.wire, kHandshakeTimeout, spec.window);
            router_->set_recv_timeout(kRequestTimeout);
        }
    }

    ~Client() { close(); }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    std::future<serve::InferenceResult> submit(const Tensor& images) {
        return session_ ? session_->submit(images) : router_->submit(images);
    }

    split::TrafficStats uplink() const {
        if (session_) {
            return session_->traffic_stats();
        }
        split::TrafficStats total;
        for (std::size_t s = 0; s < router_->shard_count(); ++s) {
            const split::TrafficStats shard = router_->shard_traffic(s);
            total.messages += shard.messages;
            total.bytes += shard.bytes;
        }
        return total;
    }

    split::TrafficStats downlink() const {
        split::TrafficStats total;
        for (const MeteredChannel* meter : meters_) {
            const split::TrafficStats part = meter->received();
            total.messages += part.messages;
            total.bytes += part.bytes;
        }
        return total;
    }

    /// Per-shard round-trip p50 (ShardRouter::shard_stats); empty for a
    /// single host.
    std::vector<double> shard_rtt_p50_ms() const {
        std::vector<double> p50;
        if (router_) {
            for (std::size_t s = 0; s < router_->shard_count(); ++s) {
                p50.push_back(router_->shard_stats(s).latency().p50_ms);
            }
        }
        return p50;
    }

    std::uint64_t failovers() const {
        return session_ ? session_->stats().failovers() : router_->failovers_total();
    }
    std::uint64_t retries() const {
        return session_ ? session_->stats().retries() : router_->stats().retries();
    }

    TimedLayer* head_probe() const { return head_probe_; }
    TimedLayer* tail_probe() const { return tail_probe_; }

    void close() {
        if (session_) {
            session_->close();
        }
        if (router_) {
            router_->close();
        }
    }

private:
    serve::ClientArtifacts artifacts_;
    TimedLayer* head_probe_ = nullptr;
    TimedLayer* tail_probe_ = nullptr;
    std::vector<MeteredChannel*> meters_;
    std::unique_ptr<serve::RemoteSession> session_;
    std::unique_ptr<serve::ShardRouter> router_;
};

// ------------------------------------------------------------- hosts

struct Context {
    const RunOptions& options;
    const WorkloadSpec& spec;
    const Inputs& inputs;
};

/// The workload's host processes (one per shard).
struct Fleet {
    std::vector<std::unique_ptr<ChildProcess>> hosts;
    std::vector<std::uint16_t> ports;
    std::vector<std::string> span_files;  ///< traced hosts only

    double cpu_seconds() const {
        double total = 0.0;
        for (const auto& host : hosts) {
            total += process_cpu_seconds(host->pid());
        }
        return total;
    }
    double peak_rss_mb() const {
        double total = 0.0;
        for (const auto& host : hosts) {
            total += process_peak_rss_mb(host->pid());
        }
        return total;
    }
    /// Stops every host; throws when one did not exit cleanly.
    void stop() {
        std::string failures;
        for (const auto& host : hosts) {
            const int status = host->stop();
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                failures += " pid " + std::to_string(host->pid()) + " status " +
                            std::to_string(status);
            }
        }
        if (!failures.empty()) {
            throw std::runtime_error("host(s) did not exit cleanly:" + failures);
        }
    }
};

Fleet launch_fleet(const Context& ctx, bool traced) {
    const WorkloadSpec& spec = ctx.spec;
    Fleet fleet;
    const std::string log_path = ctx.options.work_dir + "/hosts.log";
    for (std::size_t s = 0; s < spec.shards; ++s) {
        const auto [begin, end] = shard_slice(spec, s);
        std::vector<std::string> args;
        if (traced) {
            const Shape& in = ctx.inputs.split_shape;
            const std::string spans = ctx.options.trace_dir + "/host" + std::to_string(s) + ".spans";
            fleet.span_files.push_back(spans);
            args = {"host", "--bundle", ctx.inputs.bundle_dir, "--bodies",
                    std::to_string(begin) + ".." + std::to_string(end), "--workers",
                    std::to_string(spec.host_workers), "--input",
                    std::to_string(in.dim(0)) + "," + std::to_string(in.dim(1)) + "," +
                        std::to_string(in.dim(2)) + "," + std::to_string(in.dim(3)),
                    "--spans", spans};
            fleet.hosts.push_back(std::make_unique<ChildProcess>(
                ctx.options.self_exe, args, kHostThreads, log_path));
        } else {
            args = {"--reactor", "--port", "0", "--bundle", ctx.inputs.bundle_dir, "--bodies",
                    std::to_string(begin) + ".." + std::to_string(end), "--workers",
                    std::to_string(spec.host_workers), "--optimize"};
            fleet.hosts.push_back(std::make_unique<ChildProcess>(
                ctx.options.daemon_exe, args, kHostThreads, log_path));
        }
    }
    for (const auto& host : fleet.hosts) {
        fleet.ports.push_back(host->wait_for_port(kBootTimeout));
    }
    return fleet;
}

/// A booted deployment with its clients connected and warm.
struct Deployment {
    Fleet fleet;
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<double> setup_s;  ///< one per boot
    std::size_t wrong_boot_replies = 0;

    void shut_down() {
        for (auto& client : clients) {
            client->close();
        }
        clients.clear();
        fleet.stop();
    }
};

/// Boots `boots` times, measuring each from daemon launch to the first
/// reply; keeps the last boot running and connects the rest of the
/// workload's clients to it.
Deployment boot(const Context& ctx, bool traced, std::size_t boots, SpanLog* log) {
    Deployment deployment;
    for (std::size_t b = 0; b < boots; ++b) {
        const std::int64_t start = now_ns();
        Fleet fleet = launch_fleet(ctx, traced);
        auto client = std::make_unique<Client>(ctx.spec, ctx.inputs.bundle_dir, fleet.ports, log);
        const std::size_t image = ctx.inputs.order.front();
        const serve::InferenceResult first = client->submit(ctx.inputs.images[image]).get();
        deployment.setup_s.push_back(ms_between(start, now_ns()) * 1e-3);
        if (client->tail_probe() != nullptr) {
            Span ignored;
            client->tail_probe()->take_span_for(first.logits, ignored);
        }
        if (!logits_match(first.logits, ctx.inputs.expected[image], ctx.spec.exact)) {
            ++deployment.wrong_boot_replies;
        }
        if (b + 1 < boots) {
            client->close();
            client.reset();
            fleet.stop();
            continue;
        }
        deployment.fleet = std::move(fleet);
        deployment.clients.push_back(std::move(client));
    }
    for (std::size_t c = 1; c < ctx.spec.connections; ++c) {
        deployment.clients.push_back(std::make_unique<Client>(
            ctx.spec, ctx.inputs.bundle_dir, deployment.fleet.ports, log));
    }
    return deployment;
}

// -------------------------------------------------------------- load

/// Self times of one traced request; they partition total_ms, and with
/// the handoff to the benchmark thread they partition the wall time. The
/// stamps and the head and tail spans are kept too, so that the spans can
/// be checked against the request's own [call, done] interval.
struct RequestTrace {
    std::int64_t call_ns = 0;    ///< submit() called
    std::int64_t return_ns = 0;  ///< submit() returned
    std::int64_t done_ns = 0;    ///< logits in the benchmark's hands
    Span head;
    Span tail;
    double wall_ms = 0.0;
    double head_ms = 0.0;
    double submit_ms = 0.0;  ///< encode + enqueue: submit() minus head and window wait
    double window_wait_ms = 0.0;
    double round_trip_ms = 0.0;  ///< wire + host: compute_ms minus head, submit, tail
    double tail_ms = 0.0;
};

/// CPU time of the calling thread, in nanoseconds.
std::int64_t thread_cpu_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Sleeps until shortly before `due_ns`, then spins: a timer wakeup alone
/// lands tens to hundreds of microseconds late, and an open loop charges
/// that lateness to the request. Returns the CPU time spent spinning, which
/// is the load generator's cost, not the client's.
std::int64_t wait_until(std::int64_t due_ns) {
    constexpr std::int64_t kSpinNs = 300000;
    std::int64_t spin_start = -1;
    for (;;) {
        const std::int64_t left = due_ns - now_ns();
        if (left <= 0) {
            return spin_start < 0 ? 0 : thread_cpu_ns() - spin_start;
        }
        if (left > kSpinNs) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
        } else {
            if (spin_start < 0) {
                spin_start = thread_cpu_ns();
            }
            std::this_thread::yield();
        }
    }
}

struct Pending {
    std::future<serve::InferenceResult> future;
    std::size_t image = 0;
    std::int64_t due_ns = 0;
    std::int64_t call_ns = 0;
    std::int64_t return_ns = 0;
    Span head;  ///< traced runs only
};

struct Tally {
    std::mutex mutex;
    std::size_t attempted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t wrong = 0;
    std::vector<double> latency_ms;
    double compute_ms_sum = 0.0;
    double lag_ms_sum = 0.0;
    std::int64_t last_done_ns = 0;
    std::vector<RequestTrace> traces;
    std::string first_error;
};

struct Phase {
    const Context& ctx;
    bool record;
    Tally tally;
    std::int64_t generator_cpu_ns = 0;  ///< open loop: CPU spent waiting for due times

    void count_submit_failure(const std::exception& e) {
        const std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.attempted;
        ++tally.failed;
        if (tally.first_error.empty()) {
            tally.first_error = e.what();
        }
    }

    void count_attempt() {
        const std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.attempted;
    }

    void finish(Pending& pending, Client& client) {
        serve::InferenceResult result;
        try {
            result = pending.future.get();
        } catch (const std::exception& e) {
            const std::lock_guard<std::mutex> lock(tally.mutex);
            ++tally.failed;
            if (tally.first_error.empty()) {
                tally.first_error = e.what();
            }
            return;
        }
        const std::int64_t done = now_ns();
        Span tail;
        const bool has_tail =
            client.tail_probe() != nullptr && client.tail_probe()->take_span_for(result.logits, tail);
        const bool ok =
            logits_match(result.logits, ctx.inputs.expected[pending.image], ctx.spec.exact);

        const std::lock_guard<std::mutex> lock(tally.mutex);
        if (!ok) {
            ++tally.failed;
            ++tally.wrong;
            return;
        }
        ++tally.completed;
        tally.last_done_ns = std::max(tally.last_done_ns, done);
        if (!record) {
            return;
        }
        const double lag_ms = ms_between(pending.due_ns, pending.call_ns);
        tally.latency_ms.push_back(ctx.spec.open_loop ? lag_ms + result.total_ms
                                                      : result.compute_ms);
        tally.compute_ms_sum += result.compute_ms;
        tally.lag_ms_sum += lag_ms;
        if (client.head_probe() != nullptr && has_tail) {
            RequestTrace trace;
            trace.call_ns = pending.call_ns;
            trace.return_ns = pending.return_ns;
            trace.done_ns = done;
            trace.head = pending.head;
            trace.tail = tail;
            trace.wall_ms = ms_between(pending.call_ns, done);
            trace.head_ms = ms_between(pending.head.start_ns, pending.head.end_ns);
            trace.window_wait_ms = result.queue_ms;
            trace.submit_ms =
                ms_between(pending.call_ns, pending.return_ns) - trace.head_ms - result.queue_ms;
            trace.tail_ms = ms_between(tail.start_ns, tail.end_ns);
            trace.round_trip_ms =
                result.compute_ms - trace.head_ms - trace.submit_ms - trace.tail_ms;
            tally.traces.push_back(trace);
        }
    }

    /// Submits one request; false when submit() itself refused.
    bool submit(Client& client, std::size_t request, std::int64_t due_ns, Pending& pending) {
        pending.image = ctx.inputs.order[request % ctx.inputs.order.size()];
        pending.due_ns = due_ns;
        pending.call_ns = now_ns();
        try {
            pending.future = client.submit(ctx.inputs.images[pending.image]);
        } catch (const std::exception& e) {
            count_submit_failure(e);
            return false;
        }
        pending.return_ns = now_ns();
        if (client.head_probe() != nullptr) {
            pending.head = client.head_probe()->last_span();
        }
        count_attempt();
        return true;
    }

    /// Closed loop on one connection: keep `window` requests outstanding,
    /// submit the next as soon as the pipeline takes it.
    void closed_loop(Client& client, std::size_t first_request, std::int64_t deadline_ns) {
        std::deque<Pending> outstanding;
        std::size_t request = first_request;
        while (now_ns() < deadline_ns) {
            Pending pending;
            if (!submit(client, request++, now_ns(), pending)) {
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                continue;
            }
            outstanding.push_back(std::move(pending));
            if (outstanding.size() > ctx.spec.window) {
                finish(outstanding.front(), client);
                outstanding.pop_front();
            }
        }
        while (!outstanding.empty()) {
            finish(outstanding.front(), client);
            outstanding.pop_front();
        }
    }

    /// Open loop on one connection: send on a seeded schedule whatever the
    /// replies do; a collector thread resolves replies in send order.
    void open_loop(Client& client, const std::vector<std::int64_t>& due, std::size_t first_request) {
        std::mutex mutex;
        std::condition_variable ready;
        std::deque<Pending> queue;
        bool done = false;
        std::thread collector([&] {
            for (;;) {
                Pending pending;
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    ready.wait(lock, [&] { return done || !queue.empty(); });
                    if (queue.empty()) {
                        return;
                    }
                    pending = std::move(queue.front());
                    queue.pop_front();
                }
                finish(pending, client);
            }
        });
        for (std::size_t r = 0; r < due.size(); ++r) {
            generator_cpu_ns += wait_until(due[r]);
            Pending pending;
            if (!submit(client, first_request + r, due[r], pending)) {
                continue;
            }
            {
                const std::lock_guard<std::mutex> lock(mutex);
                queue.push_back(std::move(pending));
            }
            ready.notify_one();
        }
        {
            const std::lock_guard<std::mutex> lock(mutex);
            done = true;
        }
        ready.notify_one();
        collector.join();
    }
};

struct PhaseResult {
    std::size_t attempted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t wrong = 0;
    std::vector<double> latency_ms;
    double compute_ms_sum = 0.0;
    double lag_ms_sum = 0.0;
    std::vector<RequestTrace> traces;
    std::string first_error;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double client_cpu_s = 0.0;
    double host_cpu_s = 0.0;
    split::TrafficStats up;
    split::TrafficStats down;
    double steal_frac = 0.0;   ///< machine-wide, over the timed window
    double iowait_frac = 0.0;

    double wall_s() const { return ms_between(start_ns, end_ns) * 1e-3; }
    double throughput_rps() const { return static_cast<double>(completed) / wall_s(); }
};

split::TrafficStats sum_traffic(const Deployment& deployment, bool uplink) {
    split::TrafficStats total;
    for (const auto& client : deployment.clients) {
        const split::TrafficStats part = uplink ? client->uplink() : client->downlink();
        total.messages += part.messages;
        total.bytes += part.bytes;
    }
    return total;
}

split::TrafficStats traffic_delta(const split::TrafficStats& before,
                                  const split::TrafficStats& after) {
    return split::TrafficStats{after.messages - before.messages, after.bytes - before.bytes};
}

/// Drives the workload's load for `seconds`; `stream` keeps the arrival
/// schedules of different phases of one run distinct.
PhaseResult run_phase(const Context& ctx, Deployment& deployment, double seconds, bool record,
                      std::uint64_t stream) {
    std::vector<Client*> clients;
    for (const auto& client : deployment.clients) {
        clients.push_back(client.get());
    }
    Phase phase{ctx, record, {}};

    PhaseResult result;
    const split::TrafficStats up_before = sum_traffic(deployment, true);
    const split::TrafficStats down_before = sum_traffic(deployment, false);
    const double client_cpu_before = self_cpu_seconds();
    const double host_cpu_before = deployment.fleet.cpu_seconds();
    const MachineCpuTicks machine_before = machine_cpu_ticks();
    result.start_ns = now_ns();
    const auto span_ns = static_cast<std::int64_t>(seconds * 1e9);

    if (ctx.spec.open_loop) {
        // rate x seconds arrivals whose gaps are the dead time plus
        // exponential draws scaled to fill the window: with no dead time, a
        // Poisson process conditioned on its count.
        Rng rng = Rng(ctx.options.seed).fork_named("arrivals").fork(stream);
        const auto count = static_cast<std::size_t>(std::llround(ctx.spec.rate_rps * seconds));
        const double dead_ns = ctx.spec.min_gap_ms * 1e6;
        const double free_ns = static_cast<double>(span_ns) - static_cast<double>(count) * dead_ns;
        if (count == 0 || free_ns <= 0.0) {
            throw std::invalid_argument("open loop: rate x dead time leaves no room to arrive");
        }
        std::vector<double> draws(count);
        double draw_sum = 0.0;
        for (double& draw : draws) {
            draw = -std::log(1.0 - rng.uniform());
            draw_sum += draw;
        }
        std::vector<std::int64_t> due(count);
        double at = static_cast<double>(result.start_ns);
        for (std::size_t r = 0; r < count; ++r) {
            at += dead_ns + free_ns * draws[r] / draw_sum;
            due[r] = static_cast<std::int64_t>(at);
        }
        phase.open_loop(*clients.front(), due, stream * 100003);
    } else {
        const std::int64_t deadline = result.start_ns + span_ns;
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients.size(); ++c) {
            threads.emplace_back(
                [&, c] { phase.closed_loop(*clients[c], stream * 100003 + c * 7919, deadline); });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
    }

    result.end_ns = std::max(phase.tally.last_done_ns, result.start_ns + 1);
    result.host_cpu_s = deployment.fleet.cpu_seconds() - host_cpu_before;
    const MachineCpuTicks machine_after = machine_cpu_ticks();
    if (machine_after.total > machine_before.total) {
        const auto total = static_cast<double>(machine_after.total - machine_before.total);
        result.steal_frac = static_cast<double>(machine_after.steal - machine_before.steal) / total;
        result.iowait_frac =
            static_cast<double>(machine_after.iowait - machine_before.iowait) / total;
    }
    result.client_cpu_s = self_cpu_seconds() - client_cpu_before -
                          static_cast<double>(phase.generator_cpu_ns) * 1e-9;
    result.up = traffic_delta(up_before, sum_traffic(deployment, true));
    result.down = traffic_delta(down_before, sum_traffic(deployment, false));
    Tally& tally = phase.tally;
    result.attempted = tally.attempted;
    result.completed = tally.completed;
    result.failed = tally.failed;
    result.wrong = tally.wrong;
    result.latency_ms = std::move(tally.latency_ms);
    result.compute_ms_sum = tally.compute_ms_sum;
    result.lag_ms_sum = tally.lag_ms_sum;
    result.traces = std::move(tally.traces);
    result.first_error = std::move(tally.first_error);
    return result;
}

// ----------------------------------------------------------- metrics

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

double per_request(double total, std::size_t completed) {
    return completed == 0 ? 0.0 : total / static_cast<double>(completed);
}

void add_end_to_end(std::vector<Metric>& out, const PhaseResult& run,
                    const std::vector<double>& setup_s, double rss_mb) {
    const double attempted = static_cast<double>(std::max<std::size_t>(run.attempted, 1));
    out.push_back({"setup_s", percentile(setup_s, 0.5), "s"});
    out.push_back({"throughput_rps", run.throughput_rps(), "req/s"});
    out.push_back({"latency_p50_ms", percentile(run.latency_ms, 0.50), "ms"});
    out.push_back({"ok_frac", static_cast<double>(run.attempted - run.failed) / attempted, "ratio"});
    out.push_back({"host_cpu_ms_per_req", per_request(run.host_cpu_s * 1e3, run.completed), "ms"});
    out.push_back(
        {"client_cpu_ms_per_req", per_request(run.client_cpu_s * 1e3, run.completed), "ms"});
    out.push_back({"uplink_bytes_per_req",
                   per_request(static_cast<double>(run.up.bytes), run.completed), "B"});
    out.push_back({"downlink_bytes_per_req",
                   per_request(static_cast<double>(run.down.bytes), run.completed), "B"});
    out.push_back({"host_rss_mb", rss_mb, "MB"});
}

/// Mean microseconds per call of `fn`, over at least `min_seconds`.
template <typename Fn>
double time_us(Fn&& fn, double min_seconds = 0.1) {
    for (int i = 0; i < 10; ++i) {
        fn();
    }
    std::size_t calls = 0;
    const std::int64_t start = now_ns();
    std::int64_t elapsed = 0;
    do {
        fn();
        ++calls;
        elapsed = now_ns() - start;
    } while (static_cast<double>(elapsed) < min_seconds * 1e9);
    return static_cast<double>(elapsed) * 1e-3 / static_cast<double>(calls);
}

struct HostLayerStats {
    std::vector<double> flops;                  ///< per body layer, one forward
    std::vector<double> layer_ms_sum;
    std::vector<std::size_t> layer_count;
    double body_ms_sum = 0.0;
    std::size_t body_count = 0;
};

/// Reads the traced hosts' span files, keeping spans inside [from, to].
HostLayerStats read_host_spans(const Fleet& fleet, std::int64_t from_ns, std::int64_t to_ns) {
    HostLayerStats stats;
    for (const std::string& path : fleet.span_files) {
        std::vector<std::string> names;
        std::vector<Span> spans;
        std::istringstream header(read_span_file(path, names, spans));
        std::string word;
        header >> word;  // "flops"
        std::vector<double> flops;
        double value = 0.0;
        while (header >> value) {
            flops.push_back(value);
        }
        if (stats.flops.empty()) {
            stats.flops = flops;
            stats.layer_ms_sum.assign(flops.size(), 0.0);
            stats.layer_count.assign(flops.size(), 0);
        }
        for (const Span& span : spans) {
            if (span.start_ns < from_ns || span.end_ns > to_ns) {
                continue;
            }
            const std::string& name = names[span.name];
            const double ms = ms_between(span.start_ns, span.end_ns);
            if (name == "body") {
                stats.body_ms_sum += ms;
                ++stats.body_count;
            } else if (name.size() > 1 && name[0] == 'L') {
                const std::size_t layer = std::stoul(name.substr(1));
                if (layer < stats.layer_ms_sum.size()) {
                    stats.layer_ms_sum[layer] += ms;
                    ++stats.layer_count[layer];
                }
            }
        }
    }
    return stats;
}

void add_per_layer(std::vector<Metric>& out, const Context& ctx, const PhaseResult& traced,
                   const PhaseResult& untraced, const HostLayerStats& host,
                   const std::vector<double>& shard_rtt, std::uint64_t failovers,
                   std::uint64_t retries) {
    const WorkloadSpec& spec = ctx.spec;
    double head = 0.0, tail = 0.0, submit = 0.0, wait = 0.0, rtt = 0.0;
    std::vector<double> rtts;
    for (const RequestTrace& t : traced.traces) {
        head += t.head_ms;
        tail += t.tail_ms;
        submit += t.submit_ms;
        wait += t.window_wait_ms;
        rtt += t.round_trip_ms;
        rtts.push_back(t.round_trip_ms);
    }
    const std::size_t n = traced.traces.size();
    out.push_back({"nn.head_ms", mean(head, n), "ms"});
    out.push_back({"nn.tail_ms", mean(tail, n), "ms"});
    out.push_back({"nn.body_ms", mean(host.body_ms_sum, host.body_count), "ms"});
    for (std::size_t l = 0; l < kMaxBodyLayers; ++l) {
        const bool present = l < host.layer_count.size();
        out.push_back({"nn.body.L" + std::to_string(l) + "_ms",
                       present ? mean(host.layer_ms_sum[l], host.layer_count[l]) : 0.0, "ms"});
    }
    for (std::size_t l = 0; l < kMaxBodyLayers; ++l) {
        double gflops = 0.0;
        if (l < host.layer_count.size() && host.layer_ms_sum[l] > 0.0) {
            const double ms = mean(host.layer_ms_sum[l], host.layer_count[l]);
            gflops = host.flops[l] / (ms * 1e6);
        }
        out.push_back({"nn.body.L" + std::to_string(l) + "_gflops", gflops, "GFLOP/s"});
    }
    out.push_back({"serve.submit_ms", mean(submit, n), "ms"});
    out.push_back({"serve.window_wait_ms", mean(wait, n), "ms"});
    out.push_back({"serve.round_trip_ms", mean(rtt, n), "ms"});
    // Little's law: requests in flight = summed time in flight / wall.
    out.push_back({"serve.inflight_mean", traced.compute_ms_sum / (traced.wall_s() * 1e3), "count"});
    out.push_back({"serve.sched_lag_ms", mean(traced.lag_ms_sum, traced.latency_ms.size()), "ms"});
    const double body_s = host.body_ms_sum * 1e-3;
    const double workers = static_cast<double>(spec.shards * spec.host_workers);
    out.push_back({"serve.host_busy_frac", body_s / (traced.wall_s() * workers), "ratio"});
    out.push_back({"serve.host_body_share",
                   traced.host_cpu_s > 0.0 ? body_s / traced.host_cpu_s : 0.0, "ratio"});
    // A single host is the one shard: its round trip is measured here.
    std::vector<double> per_shard = shard_rtt;
    if (per_shard.empty()) {
        per_shard.push_back(percentile(rtts, 0.5));
    }
    for (std::size_t s = 0; s < kReportedShards; ++s) {
        out.push_back({"serve.shard" + std::to_string(s) + "_rtt_p50_ms",
                       s < per_shard.size() ? per_shard[s] : 0.0, "ms"});
    }
    const auto [lo, hi] = std::minmax_element(per_shard.begin(), per_shard.end());
    out.push_back({"serve.shard_spread_ms", *hi - *lo, "ms"});
    out.push_back({"serve.failovers", static_cast<double>(failovers), "count"});
    out.push_back({"serve.retries", static_cast<double>(retries), "count"});

    // Codec cost per message on the workload's real tensors and format.
    // A request carries one uplink message, encoded once by the client and
    // decoded by each of the K hosts, and N downlink messages, encoded by
    // the hosts and decoded by the client.
    const split::WireFormat wire = spec.wire;
    split::WireBuffer buffer;
    const double enc_up = time_us([&] { split::encode_into(ctx.inputs.uplink_sample, wire, buffer); });
    const std::string up_bytes = split::encode_tensor(ctx.inputs.uplink_sample, wire);
    const double dec_up = time_us([&] { (void)split::decode_tensor(up_bytes); });
    const double enc_down =
        time_us([&] { split::encode_into(ctx.inputs.downlink_sample, wire, buffer); });
    const std::string down_bytes = split::encode_tensor(ctx.inputs.downlink_sample, wire);
    const double dec_down = time_us([&] { (void)split::decode_tensor(down_bytes); });
    const auto bodies = static_cast<double>(kBodies);
    const auto shards = static_cast<double>(spec.shards);
    out.push_back({"split.encode_us", (enc_up + bodies * enc_down) / (1.0 + bodies), "us"});
    out.push_back({"split.decode_us", (shards * dec_up + bodies * dec_down) / (shards + bodies), "us"});
    // The secret selector runs in the finisher, just before the tail.
    const std::vector<Tensor> maps(kBodies, ctx.inputs.downlink_sample);
    out.push_back({"core.selector_us", time_us([&] { (void)ctx.inputs.selector.apply(maps); }),
                   "us"});
    out.push_back({"split.uplink_msgs_per_req",
                   per_request(static_cast<double>(traced.up.messages), traced.completed), "count"});
    out.push_back({"split.downlink_msgs_per_req",
                   per_request(static_cast<double>(traced.down.messages), traced.completed),
                   "count"});

    const double untraced_p50 = percentile(untraced.latency_ms, 0.5);
    out.push_back({"trace.overhead_throughput_frac",
                   (untraced.throughput_rps() - traced.throughput_rps()) / untraced.throughput_rps(),
                   "ratio"});
    out.push_back({"trace.overhead_p50_frac",
                   (percentile(traced.latency_ms, 0.5) - untraced_p50) / untraced_p50, "ratio"});
    out.push_back({"trace.requests", static_cast<double>(n), "count"});
}

// ------------------------------------------------------------ output

std::string json_number(double value) {
    if (!std::isfinite(value)) {
        return "0";
    }
    std::ostringstream out;
    out << std::setprecision(12) << value;
    return out.str();
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void write_request_traces(const std::string& path, const std::vector<RequestTrace>& traces) {
    std::ofstream out(path);
    for (const RequestTrace& t : traces) {
        out << "{\"call_ns\": " << t.call_ns << ", \"return_ns\": " << t.return_ns
            << ", \"done_ns\": " << t.done_ns << ", \"head_ns\": [" << t.head.start_ns << ", "
            << t.head.end_ns << "], \"tail_ns\": [" << t.tail.start_ns << ", " << t.tail.end_ns
            << "], \"wall_ms\": " << json_number(t.wall_ms)
            << ", \"self_ms\": {\"head\": " << json_number(t.head_ms)
            << ", \"submit\": " << json_number(t.submit_ms)
            << ", \"window_wait\": " << json_number(t.window_wait_ms)
            << ", \"round_trip\": " << json_number(t.round_trip_ms)
            << ", \"tail\": " << json_number(t.tail_ms) << "}}\n";
    }
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

}  // namespace

int run_benchmark(const RunOptions& options) {
    const WorkloadSpec& spec = find_workload(options.workload);
    std::filesystem::create_directories(options.work_dir);
    if (options.trace) {
        std::filesystem::create_directories(options.trace_dir);
    }
    const Inputs inputs = make_inputs(spec, options.seed, options.work_dir);
    const Context ctx{options, spec, inputs};

    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t wrong = 0;
    std::string first_error;
    const auto account = [&](const PhaseResult& run, const Deployment& deployment) {
        attempted += run.attempted + deployment.setup_s.size();
        failed += run.failed + deployment.wrong_boot_replies;
        wrong += run.wrong + deployment.wrong_boot_replies;
        if (first_error.empty()) {
            first_error = run.first_error;
        }
    };

    // Untraced: serve_daemon hosts, no spans anywhere.
    Deployment plain = boot(ctx, /*traced=*/false, options.trace ? 1 : spec.setups, nullptr);
    run_phase(ctx, plain, kWarmupSeconds, /*record=*/false, 0);
    const PhaseResult untraced = run_phase(ctx, plain, options.seconds, /*record=*/true, 1);
    const double rss_mb = plain.fleet.peak_rss_mb();
    plain.shut_down();
    account(untraced, plain);

    if (!options.trace) {
        add_end_to_end(metrics, untraced, plain.setup_s, rss_mb);
    } else {
        SpanLog client_log;
        Deployment traced_hosts = boot(ctx, /*traced=*/true, 1, &client_log);
        run_phase(ctx, traced_hosts, kWarmupSeconds, /*record=*/false, 2);
        const PhaseResult traced = run_phase(ctx, traced_hosts, options.seconds, true, 3);
        const std::vector<double> shard_rtt = traced_hosts.clients.front()->shard_rtt_p50_ms();
        std::uint64_t failovers = 0;
        std::uint64_t retries = 0;
        for (const auto& client : traced_hosts.clients) {
            failovers += client->failovers();
            retries += client->retries();
        }
        traced_hosts.shut_down();  // hosts write their spans on the way out
        account(traced, traced_hosts);
        const HostLayerStats host =
            read_host_spans(traced_hosts.fleet, traced.start_ns, traced.end_ns);
        add_per_layer(metrics, ctx, traced, untraced, host, shard_rtt, failovers, retries);
        write_request_traces(options.trace_dir + "/requests.jsonl", traced.traces);
        client_log.write(options.trace_dir + "/client.spans", "client");
    }

    std::ostringstream meta;
    meta << "{\"meta\": {\"workload\": " << json_string(spec.name)
         << ", \"seed\": " << options.seed << ", \"seconds\": " << json_number(options.seconds)
         << ", \"trace\": " << (options.trace ? "true" : "false")
         << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
         << ", \"kernel_isa\": " << json_string(kernel::kernel_isa())
         << ", \"source\": " << json_string(options.source)
         << ", \"host_processes\": " << spec.shards
         << ", \"host_workers\": " << spec.host_workers
         << ", \"host_ens_threads\": " << kHostThreads
         << ", \"client_ens_threads\": " << kClientThreads
         << ", \"connections\": " << spec.connections << ", \"window\": " << spec.window
         << ", \"loop\": " << json_string(spec.open_loop ? "open" : "closed")
         << ", \"rate_rps\": " << json_number(spec.rate_rps)
         << ", \"wire\": " << json_string(split::wire_format_name(spec.wire))
         << ", \"latency_samples\": " << untraced.latency_ms.size()
         << ", \"latency_p90_ms\": " << json_number(percentile(untraced.latency_ms, 0.90))
         << ", \"latency_p99_ms\": " << json_number(percentile(untraced.latency_ms, 0.99))
         << ", \"steal_frac\": " << json_number(untraced.steal_frac)
         << ", \"iowait_frac\": " << json_number(untraced.iowait_frac)
         << ", \"setup_samples\": " << plain.setup_s.size() << ", \"wrong\": " << wrong
         << ", \"trace_dir\": " << json_string(options.trace ? options.trace_dir : "")
         << ", \"first_error\": " << json_string(first_error) << "}}";
    std::printf("%s\n", meta.str().c_str());

    std::ostringstream result;
    result << "{\"correct\": " << (wrong == 0 && attempted > failed ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        result << (i == 0 ? "" : ", ") << json_string(metrics[i].name) << ": {\"value\": "
               << json_number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit)
               << "}";
    }
    result << "}}";
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace perfbench
