#pragma once
// Checkpointing for layer trees (by traversal order, name+shape validated).
//
// One format: save_state / load_state carry the trainable Parameters PLUS
// the named non-parameter buffers from Layer::buffers() (BatchNorm running
// statistics, fixed noise masks). A network restored with load_state
// reproduces eval-mode outputs bit-for-bit in a fresh process
// (serve/bundle.hpp builds on exactly this). In-process weight copies
// go through copy_parameters (nn/layer.hpp), not a stream.
//
// Loaders treat the stream as UNTRUSTED: every count and length is bounded
// before allocation, and every failure — wrong magic, truncation, count/
// name/shape mismatch against the target model — surfaces as a typed
// ens::Error{ErrorCode::checkpoint_error} whose message names `context`
// (the file path for the *_file entry points), never a raw read explosion
// or an attacker-sized allocation.

#include <iosfwd>
#include <string>

#include "nn/layer.hpp"

namespace ens::nn {

/// Binary format: state magic; the parameter section (its own magic,
/// count, then name, shape, f32 data per parameter); buffer count, then
/// name, shape, f32 data per buffer.
void save_state(Layer& layer, std::ostream& out);

/// Restores into an identically-structured layer; throws
/// ens::Error{checkpoint_error} (message prefixed with `context`) on any
/// mismatch or corruption.
void load_state(Layer& layer, std::istream& in,
                const std::string& context = "checkpoint stream");

void save_state_file(Layer& layer, const std::string& path);
void load_state_file(Layer& layer, const std::string& path);

}  // namespace ens::nn
