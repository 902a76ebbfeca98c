#pragma once
// Wire format for feature tensors crossing the client/server boundary.
//
// Message layout: magic, shape vector, payload. Byte counts from this
// codec feed the Table III communication model — the paper attributes
// most of Ensembler's overhead to the extra downlink feature maps, so the
// accounting must reflect real serialized sizes.
//
// Three payload encodings are supported (the paper's conclusion calls the
// client-server link the part of CI most worth optimizing):
//   f32 - lossless IEEE-754, 4 B/element (the paper's implicit wire)
//   q16 - 16-bit affine quantization, 2 B/element (see split/quant.hpp)
//   q8  -  8-bit affine quantization, 1 B/element
// decode_tensor() is self-describing: it dispatches on the magic, so a
// receiver needs no out-of-band format negotiation.
//
// Hot-path variants: the serving stack encodes one feature message per
// body per request, so the codec offers allocation-free entry points on
// top of the original std::string convenience overloads (which are now
// thin wrappers):
//   encode_into(tensor, format, WireBuffer&)  serializes into a reusable
//       buffer (capacity survives clear(), so a steady-state server stops
//       allocating entirely);
//   decode_into(bytes, Tensor&)               decodes into an existing
//       tensor, reusing its storage when the shape matches and the storage
//       is not aliased by another handle;
//   WireBufferPool                            a mutex-guarded free list of
//       WireBuffers handed out as RAII leases, shared by a router's
//       submitting threads and by the BodyHost reply path.
// Decoding operates on std::string_view so a pipelined frame (request-id
// tag + codec bytes in one message) can be decoded in place without
// copying the payload out of the frame.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "split/quant.hpp"
#include "tensor/tensor.hpp"

namespace ens::split {

/// Payload encoding for feature messages.
enum class WireFormat : std::uint8_t {
    f32 = 0,  // lossless
    q16 = 1,  // 16-bit affine
    q8 = 2,   // 8-bit affine
};

/// "f32" / "q16" / "q8" (for logs and bench rows).
const char* wire_format_name(WireFormat format);

/// Inverse of wire_format_name — parses a --wire flag value into `format`.
/// Returns false on unknown names (the caller owns the error report).
bool wire_format_from_name(const std::string& name, WireFormat& format);

/// Bit representing `format` in a supported-formats mask. Hosts advertise
/// such a mask during the serve handshake so each shard can negotiate the
/// wire format independently of the others.
constexpr std::uint32_t wire_format_bit(WireFormat format) {
    return std::uint32_t{1} << static_cast<std::uint8_t>(format);
}

/// Mask of every payload encoding this build can encode and decode.
constexpr std::uint32_t all_wire_formats_mask() {
    return wire_format_bit(WireFormat::f32) | wire_format_bit(WireFormat::q16) |
           wire_format_bit(WireFormat::q8);
}

/// True when `mask` (a peer's advertised support set) accepts `format`.
constexpr bool wire_format_supported(std::uint32_t mask, WireFormat format) {
    return (mask & wire_format_bit(format)) != 0;
}

/// Bytes per feature element of a format's payload.
std::size_t wire_format_element_size(WireFormat format);

/// Quantization levels of a format (0 for lossless f32).
std::uint32_t wire_format_levels(WireFormat format);

/// Reusable serialization buffer: clear() keeps the allocated capacity, so
/// a buffer cycled through a WireBufferPool amortizes to zero allocations
/// once it has seen the deployment's largest feature message.
class WireBuffer {
public:
    void clear() { bytes_.clear(); }
    std::size_t size() const { return bytes_.size(); }
    bool empty() const { return bytes_.empty(); }
    std::size_t capacity() const { return bytes_.capacity(); }
    void reserve(std::size_t size) { bytes_.reserve(size); }

    const char* data() const { return bytes_.data(); }
    std::string_view view() const { return bytes_; }

    /// Mutable byte access (recv-into style fills).
    std::string& bytes() { return bytes_; }

    void append_raw(const void* data, std::size_t size) {
        bytes_.append(static_cast<const char*>(data), size);
    }
    void append_u8(std::uint8_t v) { append_raw(&v, sizeof v); }
    void append_u32(std::uint32_t v) { append_raw(&v, sizeof v); }
    void append_u64(std::uint64_t v) { append_raw(&v, sizeof v); }
    void append_i64(std::int64_t v) { append_raw(&v, sizeof v); }
    void append_f32(float v) { append_raw(&v, sizeof v); }

private:
    std::string bytes_;
};

/// Thread-safe free list of WireBuffers. acquire() reuses a parked buffer
/// (or creates one) and hands it out as a move-only RAII lease that returns
/// the buffer — capacity intact — on destruction. One pool is typically
/// shared by all I/O workers of a host or router, so steady-state serving
/// recycles a handful of buffers instead of allocating one string per
/// feature message per request.
class WireBufferPool {
public:
    class Lease {
    public:
        Lease() = default;
        Lease(WireBufferPool* pool, std::unique_ptr<WireBuffer> buffer)
            : pool_(pool), buffer_(std::move(buffer)) {}
        Lease(Lease&&) noexcept = default;
        Lease& operator=(Lease&& other) noexcept {
            if (this != &other) {
                release();
                pool_ = std::exchange(other.pool_, nullptr);
                buffer_ = std::move(other.buffer_);
            }
            return *this;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        ~Lease() { release(); }

        WireBuffer& operator*() const { return *buffer_; }
        WireBuffer* operator->() const { return buffer_.get(); }
        explicit operator bool() const { return buffer_ != nullptr; }

    private:
        void release();

        WireBufferPool* pool_ = nullptr;
        std::unique_ptr<WireBuffer> buffer_;
    };

    /// Hands out a cleared buffer (recycled if one is parked).
    Lease acquire();

    /// Buffers currently parked in the free list (for tests).
    std::size_t idle() const;

private:
    friend class Lease;
    void put_back(std::unique_ptr<WireBuffer> buffer);

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<WireBuffer>> free_;
};

/// Serializes a tensor into a self-describing byte string (lossless f32).
std::string encode_tensor(const Tensor& tensor);

/// Serializes with an explicit payload encoding.
std::string encode_tensor(const Tensor& tensor, WireFormat format);

/// Allocation-free encode: clears `out` (capacity kept) and serializes the
/// message into it — byte-identical to what encode_tensor returns.
void encode_into(const Tensor& tensor, WireFormat format, WireBuffer& out);

/// Parses a byte string produced by either encode_tensor overload,
/// dequantizing if needed. Malformed input — bad magic, absurd shape,
/// payload shorter or longer than the shape demands — throws
/// ens::Error{protocol_error} before any large allocation happens, so a
/// corrupt peer cannot crash or balloon the receiving process.
Tensor decode_tensor(std::string_view bytes);

/// Decode variant that reuses `out`'s storage when it is defined and the
/// message shape matches (the steady state of a pipelined reply stream);
/// otherwise allocates exactly like decode_tensor. Tensors alias on copy,
/// so only pass an `out` whose storage no other live handle shares.
void decode_into(std::string_view bytes, Tensor& out);

/// Reads the payload encoding of an encoded message without decoding it —
/// lets a server mirror the client's wire format on the downlink. Throws
/// ens::Error{protocol_error} on malformed input.
WireFormat encoded_wire_format(std::string_view bytes);

/// Exact wire size of a tensor message without serializing it (f32).
std::uint64_t encoded_size(const Tensor& tensor);

/// Exact wire size under an explicit payload encoding.
std::uint64_t encoded_size(const Tensor& tensor, WireFormat format);

}  // namespace ens::split
