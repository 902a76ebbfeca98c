#include "process.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char** environ;

namespace perfbench {

namespace {

std::runtime_error os_error(const std::string& what) {
    return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

ChildProcess::ChildProcess(const std::string& exe, const std::vector<std::string>& args,
                           std::size_t ens_threads, const std::string& log_path) {
    // Everything the child needs is built before fork(): between fork and
    // exec a threaded parent's child may only make async-signal-safe calls.
    std::vector<std::string> argv_store;
    argv_store.push_back(exe);
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_store) {
        argv.push_back(arg.data());
    }
    argv.push_back(nullptr);

    std::vector<std::string> env_store;
    for (char** entry = environ; *entry != nullptr; ++entry) {
        if (std::strncmp(*entry, "ENS_THREADS=", 12) != 0) {
            env_store.emplace_back(*entry);
        }
    }
    env_store.push_back("ENS_THREADS=" + std::to_string(ens_threads));
    std::vector<char*> envp;
    for (std::string& entry : env_store) {
        envp.push_back(entry.data());
    }
    envp.push_back(nullptr);

    int out_pipe[2];
    if (::pipe(out_pipe) != 0) {
        throw os_error("pipe");
    }
    const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd < 0) {
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        throw os_error("open " + log_path);
    }
    rlimit files{};
    ::getrlimit(RLIMIT_NOFILE, &files);
    const int max_fd = static_cast<int>(std::min<rlim_t>(files.rlim_cur, 65536));
    const pid_t parent = ::getpid();

    pid_ = ::fork();
    if (pid_ < 0) {
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        ::close(log_fd);
        throw os_error("fork");
    }
    if (pid_ == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) {
            ::_exit(127);
        }
        ::dup2(out_pipe[1], STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        for (int fd = STDERR_FILENO + 1; fd < max_fd; ++fd) {
            ::close(fd);
        }
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
    }
    ::close(out_pipe[1]);
    ::close(log_fd);
    stdout_fd_ = out_pipe[0];
}

ChildProcess::~ChildProcess() {
    try {
        stop();
    } catch (...) {
        // Reaping is best effort here; stop() already SIGKILLed.
    }
}

std::uint16_t ChildProcess::wait_for_port(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    static const std::string kMarker = "127.0.0.1:";
    for (;;) {
        const std::size_t at = seen_.find(kMarker);
        if (at != std::string::npos) {
            std::size_t end = at + kMarker.size();
            while (end < seen_.size() && std::isdigit(static_cast<unsigned char>(seen_[end]))) {
                ++end;
            }
            if (end < seen_.size() && end > at + kMarker.size()) {
                return static_cast<std::uint16_t>(
                    std::stoul(seen_.substr(at + kMarker.size(), end - at - kMarker.size())));
            }
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) {
            throw std::runtime_error("daemon " + std::to_string(pid_) +
                                     " did not report its port in time");
        }
        pollfd pfd{stdout_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready < 0 && errno != EINTR) {
            throw os_error("poll");
        }
        if (ready <= 0) {
            continue;
        }
        char buffer[4096];
        const ssize_t n = ::read(stdout_fd_, buffer, sizeof buffer);
        if (n == 0) {
            throw std::runtime_error("daemon " + std::to_string(pid_) +
                                     " exited before listening; stdout: " + seen_);
        }
        if (n > 0) {
            seen_.append(buffer, static_cast<std::size_t>(n));
        }
    }
}

int ChildProcess::stop(std::chrono::milliseconds grace) {
    if (reaped_ || pid_ <= 0) {
        return status_;
    }
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + grace;
    for (;;) {
        const pid_t done = ::waitpid(pid_, &status_, WNOHANG);
        if (done == pid_ || (done < 0 && errno != EINTR)) {
            break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(pid_, SIGKILL);
            while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
            }
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    reaped_ = true;
    if (stdout_fd_ >= 0) {
        ::close(stdout_fd_);
        stdout_fd_ = -1;
    }
    return status_;
}

double process_cpu_seconds(pid_t pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line)) {
        throw std::runtime_error("cannot read /proc/" + std::to_string(pid) + "/stat");
    }
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    std::istringstream fields(line.substr(line.rfind(')') + 2));
    std::string field;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    for (int index = 3; index <= 15 && fields >> field; ++index) {
        if (index == 14) {
            utime = std::stoull(field);
        } else if (index == 15) {
            stime = std::stoull(field);
        }
    }
    return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            in >> kib;
            return kib / 1024.0;
        }
        in.ignore(1 << 16, '\n');
    }
    throw std::runtime_error("no VmHWM in /proc/" + std::to_string(pid) + "/status");
}

double self_cpu_seconds() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

MachineCpuTicks machine_cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu") {
        throw std::runtime_error("cannot read /proc/stat");
    }
    // user nice system idle iowait irq softirq steal; the guest fields that
    // follow are already counted in user and nice.
    MachineCpuTicks ticks;
    for (int index = 0; index < 8; ++index) {
        std::uint64_t value = 0;
        if (!(in >> value)) {
            throw std::runtime_error("short cpu line in /proc/stat");
        }
        ticks.total += value;
        if (index == 4) {
            ticks.iowait = value;
        } else if (index == 7) {
            ticks.steal = value;
        }
    }
    return ticks;
}

}  // namespace perfbench
