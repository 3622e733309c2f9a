#include "codestream.hpp"

#include "tier1.hpp"

namespace j2k {

namespace {

/// The code-block header layouts (codec.cpp writes exactly these): in a plain
/// tile payload a u8 plane count and a u32 segment length; in a layered
/// stream's first-layer chunk a u8 plane count, a u8 pass count and a u32
/// length; in a later-layer chunk a pass count and a length.
enum class block_header { plain, first_layer, later_layer };

/// Walk the headers of the `blocks` code-blocks of one tile payload or layer
/// chunk, skipping each segment.  Throws when a header or a segment runs past
/// the payload, or a plane count is implausible, so a decoder never sizes a
/// plane for data that is not there.
void walk_codeblocks(std::span<const std::uint8_t> payload, std::uint64_t blocks,
                     block_header h)
{
    const bool layered = h != block_header::plain;
    const bool planes = h != block_header::later_layer;
    const std::size_t header_bytes = (planes ? 1u : 0u) + (layered ? 1u : 0u) + 4u;
    // Indexed reads, not byte_reader calls: every cached j2k request parses
    // its header, and this loop runs once per code-block per layer.
    std::size_t pos = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        if (payload.size() - pos < header_bytes)
            throw codestream_error{layered ? "layer chunk shorter than its code-blocks"
                                           : "tile payload shorter than its code-blocks"};
        if (planes && payload[pos] > k_max_bitplanes)
            throw codestream_error{"implausible code-block plane count"};
        pos += header_bytes;
        const std::uint8_t* l = payload.data() + pos - 4;  // big-endian u32 length
        const std::uint32_t len = std::uint32_t{l[0]} << 24 | std::uint32_t{l[1]} << 16 |
                                  std::uint32_t{l[2]} << 8 | l[3];
        if (len > payload.size() - pos)
            throw codestream_error{layered ? "code-block segment overruns its layer chunk"
                                           : "code-block segment overruns its tile payload"};
        pos += len;
    }
}

/// Tiles of the grid the main header declares.
[[nodiscard]] std::uint64_t tiles_of(const stream_info& info)
{
    const auto across = [](int extent, int tile) {
        return (static_cast<std::uint64_t>(extent) + tile - 1) / tile;
    };
    return across(info.width, info.tile_width) * across(info.height, info.tile_height);
}

/// Code-blocks of one component of a w×h tile, as the codec walks them.
[[nodiscard]] std::uint64_t codeblocks(int w, int h, int levels)
{
    const auto across = [](int extent) {
        return static_cast<std::uint64_t>(extent + k_codeblock_size - 1) /
               k_codeblock_size;
    };
    std::uint64_t n = 0;  // an empty band has none
    for (const auto& br : subband_layout(w, h, levels))
        n += across(br.width) * across(br.height);
    return n;
}

/// The fixed fields of the main header, read from `r` and held to the
/// structural checks and the resource limits.
stream_info parse_main_header(byte_reader& r)
{
    if (r.u32() != k_magic) throw codestream_error{"bad magic"};
    if (r.u8() != k_version) throw codestream_error{"unsupported version"};
    stream_info info;
    info.width = static_cast<int>(r.u32());
    info.height = static_cast<int>(r.u32());
    info.components = r.u8();
    info.bit_depth = r.u8();
    info.tile_width = static_cast<int>(r.u32());
    info.tile_height = static_cast<int>(r.u32());
    info.mode = r.u8() ? wavelet::w9_7 : wavelet::w5_3;
    info.levels = r.u8();
    info.quality_layers = r.u8();
    info.quant.base_step = r.f64();
    info.quant.guard_bits = r.u8();
    if (info.width <= 0 || info.height <= 0)
        throw codestream_error{"bad image geometry"};
    if (info.components < 1 || info.components > 4)
        throw codestream_error{"bad component count"};
    if (info.bit_depth < 1 || info.bit_depth > 16)
        throw codestream_error{"bad bit depth"};
    if (info.tile_width <= 0 || info.tile_height <= 0)
        throw codestream_error{"bad tile geometry"};
    if (info.levels < 0 || info.levels > 12)
        throw codestream_error{"bad level count"};
    if (!(info.quant.base_step > 0.0) || info.quant.base_step > 1.0)
        throw codestream_error{"bad quantiser step"};
    if (info.quality_layers < 1) throw codestream_error{"bad layer count"};

    // Resource limits: hostile headers must fail cleanly *before* any decode
    // allocation is sized from them.
    if (info.width > k_max_dimension || info.height > k_max_dimension)
        throw codestream_error{"image dimensions above decode limit"};
    if (static_cast<std::uint64_t>(info.width) * info.height * info.components >
        k_max_total_samples)
        throw codestream_error{"image sample count above decode limit"};
    if (tiles_of(info) > k_max_tiles)
        throw codestream_error{"tile count above decode limit"};
    return info;
}

}  // namespace

void byte_writer::patch_u32(std::size_t pos, std::uint32_t v)
{
    // Subtraction form: `pos + 4` wraps for hostile positions near SIZE_MAX.
    if (buf_.size() < 4 || pos > buf_.size() - 4)
        throw std::out_of_range{"byte_writer::patch_u32"};
    buf_[pos] = static_cast<std::uint8_t>(v >> 24);
    buf_[pos + 1] = static_cast<std::uint8_t>(v >> 16);
    buf_[pos + 2] = static_cast<std::uint8_t>(v >> 8);
    buf_[pos + 3] = static_cast<std::uint8_t>(v);
}

std::uint8_t byte_reader::u8()
{
    if (pos_ >= data_.size()) throw codestream_error{"codestream truncated"};
    return data_[pos_++];
}

std::uint16_t byte_reader::u16()
{
    const auto hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
}

std::uint32_t byte_reader::u32()
{
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
}

std::uint64_t byte_reader::u64()
{
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
}

std::span<const std::uint8_t> byte_reader::bytes(std::size_t n)
{
    // Subtraction form: `pos_ + n` wraps for hostile lengths near SIZE_MAX
    // (pos_ <= size is an invariant, so the subtraction cannot underflow).
    if (n > data_.size() - pos_) throw codestream_error{"codestream truncated"};
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
}

void byte_reader::seek(std::size_t pos)
{
    if (pos > data_.size()) throw codestream_error{"seek out of range"};
    pos_ = pos;
}

void write_header(byte_writer& w, const stream_info& info)
{
    w.u32(k_magic);
    w.u8(k_version);
    w.u32(static_cast<std::uint32_t>(info.width));
    w.u32(static_cast<std::uint32_t>(info.height));
    w.u8(static_cast<std::uint8_t>(info.components));
    w.u8(static_cast<std::uint8_t>(info.bit_depth));
    w.u32(static_cast<std::uint32_t>(info.tile_width));
    w.u32(static_cast<std::uint32_t>(info.tile_height));
    w.u8(info.mode == wavelet::w9_7 ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(info.levels));
    w.u8(static_cast<std::uint8_t>(info.quality_layers));
    w.f64(info.quant.base_step);
    w.u8(static_cast<std::uint8_t>(info.quant.guard_bits));
}

stream_info read_main_header(std::span<const std::uint8_t> cs)
{
    byte_reader r{cs};
    return parse_main_header(r);
}

stream_info read_header(std::span<const std::uint8_t> cs)
{
    byte_reader r{cs};
    stream_info info = parse_main_header(r);
    const std::uint64_t tiles = tiles_of(info);

    // Every tile costs at least a u32 length, once per layer in a layered
    // stream's directory, so a stream whose bytes cannot hold them is refused
    // before anything is sized by the tile count.
    const std::uint64_t entries = tiles * static_cast<std::uint64_t>(info.quality_layers);
    if (entries > r.remaining() / 4)
        throw codestream_error{info.quality_layers == 1 ? "codestream truncated"
                                                        : "layer directory truncated"};

    // Every code-block header of every tile is walked here, and a payload
    // whose headers or segments do not fit it is refused, before a decoder
    // sizes the image or a tile's planes from the header's geometry.  Tiles
    // come in at most four sizes: the first tile's width or the last
    // column's, by the first tile's height or the last row's.
    const auto rect = [&](std::uint64_t t) {
        return tile_at(info.width, info.height, info.tile_width, info.tile_height,
                       static_cast<int>(t));
    };
    const tile_rect first = rect(0);
    const tile_rect last = rect(tiles - 1);
    const auto components = static_cast<std::uint64_t>(info.components);
    const auto per_size = [&](int w, int h) {
        return codeblocks(w, h, info.levels) * components;
    };
    const std::uint64_t blocks_of_size[2][2] = {
        {per_size(first.width, first.height), per_size(first.width, last.height)},
        {per_size(last.width, first.height), per_size(last.width, last.height)}};
    const auto blocks = [&](std::uint64_t t) {
        const tile_rect tr = rect(t);
        return blocks_of_size[tr.width != first.width][tr.height != first.height];
    };
    if (info.quality_layers == 1) {
        // Plain stream: each tile payload is prefixed by its u32 byte length.
        info.tile_offsets.reserve(tiles);
        info.tile_lengths.reserve(tiles);
        for (std::uint64_t t = 0; t < tiles; ++t) {
            const std::uint32_t len = r.u32();
            if (len > r.remaining()) throw codestream_error{"tile payload truncated"};
            info.tile_offsets.push_back(r.pos());
            info.tile_lengths.push_back(len);
            walk_codeblocks(r.bytes(len), blocks(t), block_header::plain);
        }
    } else {
        // Layered stream: a directory of L×T chunk lengths, then the chunks
        // in layer-major order (quality-progressive).
        std::vector<std::uint32_t> lens(entries);
        for (auto& l : lens) l = r.u32();
        // Validate each chunk against the bytes left *before* accumulating:
        // summing first and comparing after can wrap `off` past the stream
        // end on hostile (e.g. UINT32_MAX) directory entries.
        const std::size_t end = r.pos() + r.remaining();  // == stream size
        std::size_t off = r.pos();
        info.chunk_offsets.reserve(entries);
        info.chunk_lengths.reserve(entries);
        for (std::uint64_t i = 0; i < entries; ++i) {
            const std::uint32_t len = lens[i];
            if (len > end - off) throw codestream_error{"layered payload truncated"};
            walk_codeblocks(cs.subspan(off, len), blocks(i % tiles),
                            i < tiles ? block_header::first_layer
                                      : block_header::later_layer);
            info.chunk_offsets.push_back(off);
            info.chunk_lengths.push_back(len);
            off += len;
        }
    }
    return info;
}

}  // namespace j2k
