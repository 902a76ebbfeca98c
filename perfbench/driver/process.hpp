#pragma once
// Host processes the benchmark launches, and the OS counters it reads.
//
// Daemons are fork()ed and immediately exec()ed: a forked, non-exec'd child
// of a threaded process runs every kernel inline (ThreadPool::
// mark_forked_child), which is not what a production daemon does. The
// child gets a fresh environment entry ENS_THREADS, dies with the
// benchmark (PR_SET_PDEATHSIG), and inherits no descriptor but stdin,
// stdout (a pipe the benchmark reads the listening port from) and stderr
// (a log file).

#include <chrono>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class ChildProcess {
public:
    ChildProcess(const std::string& exe, const std::vector<std::string>& args,
                 std::size_t ens_threads, const std::string& log_path);
    ~ChildProcess();

    ChildProcess(const ChildProcess&) = delete;
    ChildProcess& operator=(const ChildProcess&) = delete;

    /// Blocks until the child prints "127.0.0.1:<port>" on its stdout and
    /// returns the port. Throws when the child exits first or `timeout`
    /// passes.
    std::uint16_t wait_for_port(std::chrono::milliseconds timeout);

    pid_t pid() const { return pid_; }

    /// SIGTERM, then SIGKILL after `grace`; reaps the child. Returns its
    /// wait status (idempotent: later calls return the first status).
    int stop(std::chrono::milliseconds grace = std::chrono::seconds(15));

private:
    pid_t pid_ = -1;
    int stdout_fd_ = -1;
    std::string seen_;  ///< stdout read so far
    bool reaped_ = false;
    int status_ = 0;
};

/// utime + stime of a live process, in seconds (/proc/<pid>/stat).
double process_cpu_seconds(pid_t pid);

/// Peak resident set (VmHWM) of a live process, in MiB.
double process_peak_rss_mb(pid_t pid);

/// This process's user + system CPU time, in seconds (getrusage).
double self_cpu_seconds();

/// The machine's CPU time counters (first line of /proc/stat), in clock
/// ticks summed over all CPUs. Steal is time a hypervisor gave this
/// machine's virtual CPUs to someone else; a window with much of it ran on
/// less machine than one without.
struct MachineCpuTicks {
    std::uint64_t total = 0;  ///< every state, user through steal
    std::uint64_t iowait = 0;
    std::uint64_t steal = 0;
};
MachineCpuTicks machine_cpu_ticks();

}  // namespace perfbench
