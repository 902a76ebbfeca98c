#include "nn/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/typed_error.hpp"

namespace ens::nn {

namespace {
constexpr std::uint32_t kMagicState = 0x454E5332;   // "ENS2": the checkpoint
constexpr std::uint32_t kMagicParams = 0x454E5331;  // "ENS1": its parameter section

// Hostile-input bounds, checked before any allocation. Parameter names are
// short identifiers ("weight", "noise_mask"); tensors in this library are
// rank <= 4, with headroom.
constexpr std::size_t kMaxNameLength = 256;
constexpr std::size_t kMaxRank = 8;

[[noreturn]] void fail(const std::string& context, const std::string& msg) {
    checkpoint_fail(context, msg);
}

std::string hex(std::uint32_t v) {
    std::ostringstream oss;
    oss << "0x" << std::hex << v;
    return oss.str();
}

std::string dims_to_string(const std::vector<std::int64_t>& dims) {
    std::ostringstream oss;
    oss << '[';
    for (std::size_t i = 0; i < dims.size(); ++i) {
        oss << (i > 0 ? ", " : "") << dims[i];
    }
    oss << ']';
    return oss.str();
}

/// One named-tensor record: name + shape + f32 payload, validated field by
/// field against the destination tensor BEFORE its data is read, so a
/// corrupt record can neither allocate (bounded reads) nor silently load
/// into the wrong slot.
void load_named_tensor(BinaryReader& reader, const std::string& kind,
                       const std::string& expected_name, Tensor& destination,
                       const std::string& context) {
    const std::string name = reader.read_string_bounded(kMaxNameLength);
    if (name != expected_name) {
        fail(context, kind + " name mismatch: checkpoint holds \"" + name +
                          "\", model expects \"" + expected_name + "\"");
    }
    const std::vector<std::int64_t> dims = reader.read_i64_vector_bounded(kMaxRank);
    if (dims != destination.shape().dims()) {
        fail(context, kind + " shape mismatch for \"" + name + "\": checkpoint holds " +
                          dims_to_string(dims) + ", model expects " +
                          destination.shape().to_string());
    }
    // read_f32_array validates the stored element count against the (shape-
    // checked) expected count before moving bytes into the existing tensor
    // storage — no allocation happens on this path.
    reader.read_f32_array(destination.data(), static_cast<std::size_t>(destination.numel()));
}

void expect_magic(BinaryReader& reader, std::uint32_t want, const std::string& context) {
    const std::uint32_t magic = reader.read_u32();
    if (magic != want) {
        fail(context, "bad checkpoint magic " + hex(magic) + " (want " + hex(want) + ")");
    }
}

void write_named_tensor(BinaryWriter& writer, const std::string& name, const Tensor& tensor) {
    writer.write_string(name);
    writer.write_i64_vector(tensor.shape().dims());
    writer.write_f32_array(tensor.data(), static_cast<std::size_t>(tensor.numel()));
}

void load_state_impl(Layer& layer, BinaryReader& reader, const std::string& context) {
    expect_magic(reader, kMagicState, context);
    expect_magic(reader, kMagicParams, context);
    const auto params = layer.parameters();
    const std::uint64_t param_count = reader.read_u64();
    if (param_count != params.size()) {
        fail(context, "parameter count mismatch: checkpoint holds " +
                          std::to_string(param_count) +
                          ", model expects " + std::to_string(params.size()));
    }
    for (Parameter* p : params) {
        load_named_tensor(reader, "parameter", p->name, p->value, context);
    }
    // Restored values invalidate any derived state (packed GEMM panels).
    layer.on_parameters_changed();
    const auto state = layer.buffers();
    const std::uint64_t buffer_count = reader.read_u64();
    if (buffer_count != state.size()) {
        fail(context, "buffer count mismatch: checkpoint holds " + std::to_string(buffer_count) +
                          ", model expects " + std::to_string(state.size()));
    }
    for (const Layer::NamedBuffer& buffer : state) {
        load_named_tensor(reader, "buffer", buffer.name, *buffer.tensor, context);
    }
}

template <typename Body>
void run_typed(const std::string& context, Body&& body) {
    with_checkpoint_typing(context, "truncated or corrupt checkpoint", std::forward<Body>(body));
}

}  // namespace

void save_state(Layer& layer, std::ostream& out) {
    BinaryWriter writer(out);
    writer.write_u32(kMagicState);
    writer.write_u32(kMagicParams);
    const auto params = layer.parameters();
    writer.write_u64(params.size());
    for (const Parameter* p : params) {
        write_named_tensor(writer, p->name, p->value);
    }
    const auto state = layer.buffers();
    writer.write_u64(state.size());
    for (const Layer::NamedBuffer& buffer : state) {
        write_named_tensor(writer, buffer.name, *buffer.tensor);
    }
}

void load_state(Layer& layer, std::istream& in, const std::string& context) {
    BinaryReader reader(in);
    run_typed(context, [&] { load_state_impl(layer, reader, context); });
}

void save_state_file(Layer& layer, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out.good()) {
        fail(path, "cannot open checkpoint for writing");
    }
    save_state(layer, out);
    // Flush before declaring success: a full disk surfacing only in the
    // unchecked destructor would leave a truncated checkpoint behind.
    out.flush();
    if (!out.good()) {
        fail(path, "checkpoint write failed (disk full?)");
    }
}

void load_state_file(Layer& layer, const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
        fail(path, "cannot open checkpoint for reading");
    }
    load_state(layer, in, path);
}

}  // namespace ens::nn
