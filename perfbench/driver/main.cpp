// perfbench_driver — the serving benchmark's C++ half.
//
//   perfbench_driver run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       --daemon <serve_daemon> --work-dir <dir> --trace-dir <dir> [--source <digest>]
//     Runs one workload (see workload.cpp) and prints a metadata line and
//     then the result line, both JSON, on stdout. perfbench/run.py builds
//     this binary and is the supported entry point.
//
//   perfbench_driver host --bundle <dir> --bodies <i..j> --workers <w>
//       --input <N,C,H,W> --spans <file>
//     The traced body host a traced run launches (host.cpp).
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.hpp"
#include "common/args.hpp"
#include "host.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Parses "i..j" into begin and count.
bool parse_range(const std::string& text, std::size_t& begin, std::size_t& count) {
    const std::size_t dots = text.find("..");
    if (dots == std::string::npos) {
        return false;
    }
    try {
        begin = std::stoul(text.substr(0, dots));
        const std::size_t end = std::stoul(text.substr(dots + 2));
        count = end - begin;
        return end > begin;
    } catch (const std::exception&) {
        return false;
    }
}

bool parse_shape(const std::string& text, ens::Shape& shape) {
    std::vector<std::int64_t> dims;
    std::size_t start = 0;
    try {
        while (start <= text.size()) {
            std::size_t comma = text.find(',', start);
            if (comma == std::string::npos) {
                comma = text.size();
            }
            dims.push_back(std::stoll(text.substr(start, comma - start)));
            start = comma + 1;
        }
    } catch (const std::exception&) {
        return false;
    }
    shape = ens::Shape(dims);
    return dims.size() == 4;
}

bool reject_unknown(const ens::ArgParser& args) {
    for (const std::string& flag : args.unconsumed()) {
        std::fprintf(stderr, "perfbench_driver: unknown flag --%s\n", flag.c_str());
        return true;
    }
    return false;
}

int host_main(const ens::ArgParser& args) {
    HostOptions options;
    options.bundle_dir = args.get_string("bundle", "");
    options.workers = static_cast<std::size_t>(args.get_int("workers", 1));
    options.spans_path = args.get_string("spans", "");
    const std::string bodies = args.get_string("bodies", "");
    const std::string input = args.get_string("input", "");
    if (reject_unknown(args)) {
        return 2;
    }
    if (options.bundle_dir.empty() || options.spans_path.empty() || options.workers == 0 ||
        !parse_range(bodies, options.body_begin, options.body_count) ||
        !parse_shape(input, options.input_shape)) {
        std::fprintf(stderr, "perfbench_driver host: need --bundle, --bodies i..j, --workers "
                             ">= 1, --input N,C,H,W and --spans\n");
        return 2;
    }
    return run_traced_host(options);
}

int run_main(const ens::ArgParser& args) {
    RunOptions options;
    options.workload = args.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.daemon_exe = args.get_string("daemon", "");
    options.work_dir = args.get_string("work-dir", "");
    options.trace_dir = args.get_string("trace-dir", "");
    options.source = args.get_string("source", "unknown");
    if (reject_unknown(args)) {
        return 2;
    }
    if (options.daemon_exe.empty() || options.work_dir.empty() ||
        (options.trace && options.trace_dir.empty()) || !(options.seconds > 0.0)) {
        std::fprintf(stderr, "perfbench_driver run: need --workload, --daemon, --work-dir, "
                             "--seconds > 0 and, with --trace 1, --trace-dir\n");
        return 2;
    }
    try {
        find_workload(options.workload);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
    options.self_exe = std::filesystem::canonical("/proc/self/exe").string();
    // Sizes this process's kernel pool; must precede the first tensor op.
    ::setenv("ENS_THREADS", std::to_string(kClientThreads).c_str(), 1);
    return run_benchmark(options);
}

}  // namespace

int main(int argc, char** argv) {
    std::signal(SIGPIPE, SIG_IGN);
    try {
        const ens::ArgParser args(argc, argv);
        if (args.command() == "host") {
            return host_main(args);
        }
        if (args.command() == "run") {
            return run_main(args);
        }
        std::fprintf(stderr, "usage: perfbench_driver run|host [flags] (see main.cpp)\n");
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
