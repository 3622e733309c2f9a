// j2k/codestream.hpp — simplified codestream container.
//
// A compact substitute for the JPEG 2000 tier-2 / JPC marker syntax: a fixed
// header (geometry, mode, levels, quantiser), then one length-prefixed
// payload per tile containing, for every component × subband × code block,
// the tier-1 codeword segment.  Big-endian throughout.  The simplification
// (no progression orders / packet headers) is documented in DESIGN.md; the
// decoder work distribution — what the paper measures — is unaffected.
#pragma once

#include "quant.hpp"

#include <codec/error.hpp>

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace j2k {

/// Thrown on malformed codestreams.  The codec-neutral base type (shared by
/// every registered backend) lives in codec/error.hpp; the alias keeps every
/// existing j2k throw/catch site source-identical while letting the serving
/// layers handle all codecs with one catch clause.
using codestream_error = codec::codestream_error;

/// Big-endian byte sink.
class byte_writer {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v >> 8));
        u8(static_cast<std::uint8_t>(v));
    }
    void u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v >> 16));
        u16(static_cast<std::uint16_t>(v));
    }
    void u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v >> 32));
        u32(static_cast<std::uint32_t>(v));
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void bytes(std::span<const std::uint8_t> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

    /// Overwrite a previously written u32 at byte offset `pos` (for lengths).
    void patch_u32(std::size_t pos, std::uint32_t v);

    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

/// Big-endian byte source with bounds checking.
class byte_reader {
public:
    explicit byte_reader(std::span<const std::uint8_t> data) : data_{data} {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint16_t u16();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
    [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n);

    void seek(std::size_t pos);
    [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

private:
    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

/// Everything the decoder needs from the main header.
struct stream_info {
    int width = 0;
    int height = 0;
    int components = 0;
    int bit_depth = 8;
    int tile_width = 0;
    int tile_height = 0;
    wavelet mode = wavelet::w5_3;
    int levels = 0;
    int quality_layers = 1;  ///< 1 = plain stream; >1 = layer-major packets
    quant_params quant;

    // Plain streams: one payload per tile, in tile order.
    std::vector<std::size_t> tile_offsets;  ///< byte offset of each tile payload
    std::vector<std::size_t> tile_lengths;

    // Layered streams: one chunk per (layer, tile), layer-major — a byte
    // prefix of the stream holds whole early layers (quality progression).
    std::vector<std::size_t> chunk_offsets;  ///< [layer * tiles + tile]
    std::vector<std::size_t> chunk_lengths;

    [[nodiscard]] int tile_count() const noexcept
    {
        return quality_layers > 1
                   ? static_cast<int>(chunk_offsets.size()) / quality_layers
                   : static_cast<int>(tile_offsets.size());
    }

    /// Layered streams: how many complete quality layers a byte prefix of
    /// the codestream contains.
    [[nodiscard]] int layers_in_prefix(std::size_t bytes) const noexcept
    {
        if (quality_layers <= 1) return 1;
        const int tiles = tile_count();
        int complete = 0;
        for (int l = 0; l < quality_layers; ++l) {
            const std::size_t last = static_cast<std::size_t>(l) * tiles + (tiles - 1);
            if (chunk_offsets[last] + chunk_lengths[last] <= bytes)
                complete = l + 1;
            else
                break;
        }
        return complete;
    }
};

inline constexpr std::uint32_t k_magic = 0x4F4A324Bu;  // "OJ2K"
inline constexpr std::uint8_t k_version = 1;

// Decode-side resource limits.  A header that passes structural validation
// can still describe absurd allocations (4G×4G pixels, millions of tiles);
// read_header rejects those with codestream_error before anything is sized
// from the hostile values.
inline constexpr int k_max_dimension = 1 << 20;
inline constexpr std::uint64_t k_max_total_samples = std::uint64_t{1} << 28;
inline constexpr std::uint64_t k_max_tiles = std::uint64_t{1} << 20;

/// Serialise the main header.
void write_header(byte_writer& w, const stream_info& info);

/// Parse the fixed fields of the main header (the bytes write_header writes)
/// and hold them to the structural checks and the resource limits above; the
/// tile directory is left unread, so the offset and length vectors stay
/// empty.  O(1): for a caller that needs only the geometry or the layer
/// count.  Throws codestream_error.
[[nodiscard]] stream_info read_main_header(std::span<const std::uint8_t> cs);

/// read_main_header, then parse the tile directory and walk the code-block
/// headers of every tile payload and layer chunk.  Throws codestream_error,
/// also for a payload or chunk whose block headers or segments run past it,
/// or a block declaring more than k_max_bitplanes, before anything is sized.
[[nodiscard]] stream_info read_header(std::span<const std::uint8_t> cs);

}  // namespace j2k
