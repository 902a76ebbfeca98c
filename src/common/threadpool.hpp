#pragma once
// Fixed-size thread pool with a parallel_for helper.
//
// The NN substrate uses this for data-parallel work inside matmul/im2col,
// where each range chunk is independent. The pool is created once and
// reused; ens::global_pool() returns a process-wide instance sized to the
// hardware concurrency (overridable with the ENS_THREADS env var).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ens {

class ThreadPool {
public:
    /// Spawns `num_threads` workers (>= 1).
    explicit ThreadPool(std::size_t num_threads);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    std::size_t size() const { return workers_.size(); }

    /// Runs fn(begin..end) split into roughly equal chunks across the pool,
    /// blocking until all chunks complete. The calling thread participates,
    /// so a pool of size 1 still gets 1 worker + caller. Exceptions from
    /// chunks are rethrown (first one wins).
    ///
    /// Re-entrancy: when called from one of THIS pool's worker threads
    /// (e.g. a Conv2d batch chunk that hits parallel_for again inside
    /// matmul/im2col), the range runs inline on
    /// that worker instead of being split — blocking a worker on sub-chunks
    /// it is itself supposed to drain would deadlock the pool. Calls onto a
    /// different pool split normally (its workers can drain them).
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t, std::size_t)>& fn);

    /// True on threads owned by any ThreadPool (exposed for tests).
    static bool on_worker_thread();

private:
    void worker_loop();
    void enqueue(std::function<void()> task);

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/// Process-wide pool; size = ENS_THREADS env var if set, else
/// hardware_concurrency.
ThreadPool& global_pool();

/// Convenience wrapper over global_pool().parallel_for.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace ens
