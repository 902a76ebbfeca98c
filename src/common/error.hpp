#pragma once
// Error-handling helpers.
//
// The library signals contract violations and unrecoverable failures with
// exceptions (std::invalid_argument for bad arguments, std::runtime_error for
// state errors), per I.10 of the C++ Core Guidelines. The macros below attach
// file:line context so failures deep inside training loops are diagnosable.

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ens {

/// Builds a "file:line: message" string for exception payloads.
inline std::string error_location(const char* file, int line, const std::string& msg) {
    std::ostringstream oss;
    oss << file << ':' << line << ": " << msg;
    return oss.str();
}

/// Machine-dispatchable failure classes for conditions a caller may want to
/// handle rather than abort on: transport shutdown, wire timeouts, OS-level
/// I/O faults, and service overload (bounded-admission rejection).
enum class ErrorCode : std::uint8_t {
    generic = 0,
    channel_closed = 1,   // peer disconnected / close() called; no more messages
    channel_timeout = 2,  // recv timed out waiting for a message
    io_error = 3,         // unexpected OS-level socket failure
    overloaded = 4,       // admission control rejected the request (queue full)
    protocol_error = 5,   // malformed/incompatible peer bytes: bad handshake
                          // magic or version, truncated or corrupt frame,
                          // inconsistent shard body ranges
    checkpoint_error = 6,  // unloadable checkpoint/bundle file: bad magic or
                           // version, truncated stream, name/shape/count
                           // mismatch against the target model (messages
                           // name the offending file)
    compile_error = 7,     // graph-compiler contract violation: a compiled
                           // (inference-only) artifact was asked to
                           // train/export
};

/// "channel_closed" etc., for logs and test diagnostics.
inline const char* error_code_name(ErrorCode code) {
    switch (code) {
        case ErrorCode::generic: return "generic";
        case ErrorCode::channel_closed: return "channel_closed";
        case ErrorCode::channel_timeout: return "channel_timeout";
        case ErrorCode::io_error: return "io_error";
        case ErrorCode::overloaded: return "overloaded";
        case ErrorCode::protocol_error: return "protocol_error";
        case ErrorCode::checkpoint_error: return "checkpoint_error";
        case ErrorCode::compile_error: return "compile_error";
    }
    return "?";
}

/// Typed runtime error. Derives from std::runtime_error so existing catch
/// sites keep working; code() lets transport and admission callers branch
/// on the failure class (e.g. retry on timeout, drop session on close).
class Error : public std::runtime_error {
public:
    Error(ErrorCode code, const std::string& msg)
        : std::runtime_error(std::string(error_code_name(code)) + ": " + msg), code_(code) {}

    ErrorCode code() const { return code_; }

private:
    ErrorCode code_;
};

}  // namespace ens

/// Precondition check: throws std::invalid_argument when `cond` is false.
#define ENS_REQUIRE(cond, msg)                                                        \
    do {                                                                              \
        if (!(cond)) {                                                                \
            throw std::invalid_argument(                                              \
                ::ens::error_location(__FILE__, __LINE__,                             \
                                      std::string("requirement failed: ") + (msg)));  \
        }                                                                             \
    } while (0)

/// Internal invariant check: throws std::runtime_error when `cond` is false.
#define ENS_CHECK(cond, msg)                                                        \
    do {                                                                            \
        if (!(cond)) {                                                              \
            throw std::runtime_error(                                               \
                ::ens::error_location(__FILE__, __LINE__,                           \
                                      std::string("invariant violated: ") + (msg))); \
        }                                                                           \
    } while (0)

/// Unconditional failure for unreachable branches (e.g. exhaustive switch
/// fall-through on an enum that gained a value).
#define ENS_FAIL(msg)                                                             \
    throw std::runtime_error(                                                     \
        ::ens::error_location(__FILE__, __LINE__, std::string("failure: ") + (msg)))
