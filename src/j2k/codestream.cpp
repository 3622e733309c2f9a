#include "codestream.hpp"

#include "tier1.hpp"

namespace j2k {

namespace {

/// Fewest payload bytes each code-block costs, whatever its data: a u8 plane
/// count and a u32 length in a plain tile payload; a u8 plane count, a u8
/// pass count and a u32 length in a layered stream's first layer; a pass
/// count and a length in each later layer (codec.cpp writes exactly these).
constexpr std::uint64_t k_plain_block_bytes = 5;
constexpr std::uint64_t k_first_layer_block_bytes = 6;
constexpr std::uint64_t k_later_layer_block_bytes = 5;

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

stream_info read_header(std::span<const std::uint8_t> cs)
{
    byte_reader r{cs};
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
    const std::uint64_t tiles_x =
        (static_cast<std::uint64_t>(info.width) + info.tile_width - 1) /
        info.tile_width;
    const std::uint64_t tiles_y =
        (static_cast<std::uint64_t>(info.height) + info.tile_height - 1) /
        info.tile_height;
    if (tiles_x * tiles_y > k_max_tiles)
        throw codestream_error{"tile count above decode limit"};

    // A payload too short for its tile's code-block headers is refused here,
    // before a decoder sizes the tile's planes from the header's geometry.
    // Tiles come in at most four sizes: the first tile's width or the last
    // column's, by the first tile's height or the last row's.
    const auto tiles = tile_grid(info.width, info.height, info.tile_width, info.tile_height);
    const tile_rect& first = tiles.front();
    const tile_rect& last = tiles.back();
    const auto components = static_cast<std::uint64_t>(info.components);
    const auto per_size = [&](int w, int h) {
        return codeblocks(w, h, info.levels) * components;
    };
    const std::uint64_t blocks_of_size[2][2] = {
        {per_size(first.width, first.height), per_size(first.width, last.height)},
        {per_size(last.width, first.height), per_size(last.width, last.height)}};
    const auto blocks = [&](const tile_rect& tr) {
        return blocks_of_size[tr.width != first.width][tr.height != first.height];
    };
    if (info.quality_layers == 1) {
        // Plain stream: each tile payload is prefixed by its u32 byte length.
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            const std::uint32_t len = r.u32();
            if (len > r.remaining()) throw codestream_error{"tile payload truncated"};
            if (len < k_plain_block_bytes * blocks(tiles[t]))
                throw codestream_error{"tile payload shorter than its code-blocks"};
            info.tile_offsets.push_back(r.pos());
            info.tile_lengths.push_back(len);
            r.seek(r.pos() + len);
        }
    } else {
        // Layered stream: a directory of L×T chunk lengths, then the chunks
        // in layer-major order (quality-progressive).
        const std::size_t n =
            static_cast<std::size_t>(info.quality_layers) * tiles.size();
        // Directory must physically fit in the remaining bytes before the
        // entry vector is allocated (n can be ~256M on hostile headers).
        if (n > r.remaining() / 4)
            throw codestream_error{"layer directory truncated"};
        std::vector<std::uint32_t> lens(n);
        for (auto& l : lens) l = r.u32();
        // Validate each chunk against the bytes left *before* accumulating:
        // summing first and comparing after can wrap `off` past the stream
        // end on hostile (e.g. UINT32_MAX) directory entries.
        const std::size_t end = r.pos() + r.remaining();  // == stream size
        std::size_t off = r.pos();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t len = lens[i];
            if (len > end - off) throw codestream_error{"layered payload truncated"};
            const std::uint64_t per_block =
                i < tiles.size() ? k_first_layer_block_bytes : k_later_layer_block_bytes;
            if (len < per_block * blocks(tiles[i % tiles.size()]))
                throw codestream_error{"layer chunk shorter than its code-blocks"};
            info.chunk_offsets.push_back(off);
            info.chunk_lengths.push_back(len);
            off += len;
        }
    }
    return info;
}

}  // namespace j2k
