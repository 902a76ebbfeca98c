#pragma once
// A body host in ANOTHER process: the built serve_daemon, exec'd on an
// on-disk bundle exactly as production boots it. Tests use it only where
// the process boundary is the point — a SIGKILLed, SIGSTOPped or
// SIGHUPped daemon, a SIGTERM drain, or a boot from disk. Everything else
// serves from an in-thread ReactorFixture (serve_harness.hpp).
//
// The spawner is perfbench::ChildProcess: fork, then exec at once, so the
// daemon runs its own thread pool and reactor workers, as in production.
// The levers are plain calls on it:
//   ::kill(daemon->pid(), sig)   sig one of SIGKILL, SIGSTOP, SIGCONT, SIGHUP
//   daemon->stop()               SIGTERM, drain, reap; returns the wait
//                                status, which is 0 exactly when the
//                                daemon exited with code 0.
// The daemon inherits this process's environment (ASAN_OPTIONS,
// TSAN_OPTIONS), so a sanitizer report in it fails its exit status.
//
// Build: the test target compiles perfbench/driver/process.cpp and gets
// ENS_SERVE_DAEMON, the path of the built serve_daemon (CMakeLists.txt).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/driver/process.hpp"

namespace ens::serve::harness {

/// Generous: a daemon prints its port once the bundle is loaded, in tens
/// of milliseconds for these tiny bundles; sanitizer builds are slower.
constexpr std::chrono::seconds kDaemonBoot{60};

/// Execs `serve_daemon --bundle <dir> --port <port> --workers 2 <flags>`
/// with ENS_THREADS=2; `port` 0 picks an ephemeral one, a nonzero port
/// reclaims a killed daemon's address. The daemon's stderr is appended to
/// <dir>/serve_daemon.log, beside the bundle CI uploads on failure. Read
/// its port with wait_for_port(kDaemonBoot).
///
/// Spawn from the test's main thread: the daemon is SIGKILLed when the
/// thread that spawned it exits (PR_SET_PDEATHSIG).
inline std::unique_ptr<perfbench::ChildProcess> exec_daemon(
    const std::string& dir, const std::vector<std::string>& flags = {},
    std::uint16_t port = 0) {
    std::vector<std::string> args = {"--bundle",  dir, "--port", std::to_string(port),
                                     "--workers", "2"};
    args.insert(args.end(), flags.begin(), flags.end());
    return std::make_unique<perfbench::ChildProcess>(ENS_SERVE_DAEMON, args, /*ens_threads=*/2,
                                                     dir + "/serve_daemon.log");
}

}  // namespace ens::serve::harness
