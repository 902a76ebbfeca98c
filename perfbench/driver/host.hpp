#pragma once

#include <cstddef>
#include <string>

#include "tensor/shape.hpp"

namespace perfbench {

struct HostOptions {
    std::string bundle_dir;
    std::size_t body_begin = 0;
    std::size_t body_count = 0;
    std::size_t workers = 1;
    ens::Shape input_shape;  ///< [N, C, H, W] a body consumes (for FLOP counts)
    std::string spans_path;
};

/// Serves until SIGTERM/SIGINT, then writes the spans; returns the exit code.
int run_traced_host(const HostOptions& options);

}  // namespace perfbench
