#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/env.hpp"
#include "common/error.hpp"

namespace ens {

namespace {
// Owning pool of the current thread, set for the lifetime of every worker.
// A nested parallel_for on the SAME pool runs inline: a worker that blocks
// waiting for queued sub-chunks can starve the very queue it is supposed
// to drain (guaranteed deadlock on a pool of size 1). Nesting onto a
// DIFFERENT pool still splits normally — that pool's workers are free to
// drain it (and, inlining their own nested calls, never block), so e.g. a
// dedicated serve fan-out pool keeps the global-pool tensor kernels
// parallel.
thread_local const ThreadPool* tl_worker_pool = nullptr;
}  // namespace

bool ThreadPool::on_worker_thread() { return tl_worker_pool != nullptr; }

ThreadPool::ThreadPool(std::size_t num_threads) {
    ENS_REQUIRE(num_threads >= 1, "thread pool needs at least one worker");
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::worker_loop() {
    tl_worker_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
            if (stopping_ && tasks_.empty()) {
                return;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void ThreadPool::enqueue(std::function<void()> task) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push(std::move(task));
    }
    cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
    if (begin >= end) {
        return;
    }
    if (tl_worker_pool == this) {
        fn(begin, end);
        return;
    }
    const std::size_t total = end - begin;
    const std::size_t num_chunks = std::min(total, workers_.size() + 1);
    if (num_chunks <= 1) {
        fn(begin, end);
        return;
    }

    struct SharedState {
        std::atomic<std::size_t> remaining;
        std::mutex done_mutex;
        std::condition_variable done_cv;
        std::exception_ptr error;
        std::mutex error_mutex;
    };
    SharedState state;
    state.remaining.store(num_chunks - 1);

    const std::size_t chunk = (total + num_chunks - 1) / num_chunks;
    // Chunks 1..n-1 go to the pool; chunk 0 runs on the calling thread.
    for (std::size_t c = 1; c < num_chunks; ++c) {
        const std::size_t lo = begin + c * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        enqueue([&state, &fn, lo, hi] {
            try {
                if (lo < hi) {
                    fn(lo, hi);
                }
            } catch (...) {
                const std::lock_guard<std::mutex> lock(state.error_mutex);
                if (!state.error) {
                    state.error = std::current_exception();
                }
            }
            // The decrement must happen under done_mutex: if it were done
            // outside, the caller could observe remaining == 0, return, and
            // destroy `state` while this thread is still about to lock
            // state.done_mutex (use-after-free on the mutex). Holding the
            // lock across decrement+notify makes the caller's wakeup
            // strictly ordered after this thread's last access.
            const std::lock_guard<std::mutex> lock(state.done_mutex);
            if (state.remaining.fetch_sub(1) == 1) {
                state.done_cv.notify_one();
            }
        });
    }

    try {
        fn(begin, std::min(end, begin + chunk));
    } catch (...) {
        const std::lock_guard<std::mutex> lock(state.error_mutex);
        if (!state.error) {
            state.error = std::current_exception();
        }
    }

    {
        std::unique_lock<std::mutex> lock(state.done_mutex);
        state.done_cv.wait(lock, [&state] { return state.remaining.load() == 0; });
    }
    if (state.error) {
        std::rethrow_exception(state.error);
    }
}

ThreadPool& global_pool() {
    static ThreadPool pool{[] {
        const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
        return std::max<std::size_t>(1, env_size("ENS_THREADS", hw));
    }()};
    return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
    global_pool().parallel_for(begin, end, fn);
}

}  // namespace ens
