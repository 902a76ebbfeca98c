#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon_exe;  ///< serve_daemon
    std::string self_exe;    ///< this binary, exec'd as the traced host
    std::string work_dir;    ///< scratch space for bundles and logs
    std::string trace_dir;   ///< where a traced run leaves its spans
    std::string source;      ///< digest of the sources built, echoed into the metadata
};

/// Runs one workload and prints the metadata line and then the result line
/// on stdout. Returns the process exit code.
int run_benchmark(const RunOptions& options);

}  // namespace perfbench
