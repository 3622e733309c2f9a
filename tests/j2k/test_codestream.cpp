// Codestream hardening: hostile lengths must fail with codestream_error, not
// wrap the bounds arithmetic and read out of range.
#include <j2k/codestream.hpp>
#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace {

std::vector<std::uint8_t> make_stream(int w, int h, int comps, int tile, int layers = 1)
{
    const j2k::image img = j2k::make_test_image(w, h, comps);
    j2k::codec_params p;
    p.tile_width = tile;
    p.tile_height = tile;
    p.quality_layers = layers;
    return j2k::encode(img, p);
}

void patch_be_u32(std::vector<std::uint8_t>& buf, std::size_t pos, std::uint32_t v)
{
    ASSERT_LE(pos + 4, buf.size());
    buf[pos] = static_cast<std::uint8_t>(v >> 24);
    buf[pos + 1] = static_cast<std::uint8_t>(v >> 16);
    buf[pos + 2] = static_cast<std::uint8_t>(v >> 8);
    buf[pos + 3] = static_cast<std::uint8_t>(v);
}

TEST(ByteReader, HostileLengthNearSizeMaxDoesNotWrap)
{
    const std::vector<std::uint8_t> data(16, 0xAB);
    j2k::byte_reader r{data};
    (void)r.u8();  // pos_ = 1, so pos_ + SIZE_MAX wraps to 0 in the naive check
    EXPECT_THROW((void)r.bytes(std::numeric_limits<std::size_t>::max()),
                 j2k::codestream_error);
    EXPECT_THROW((void)r.bytes(data.size()), j2k::codestream_error);
    EXPECT_NO_THROW((void)r.bytes(data.size() - 1));
}

TEST(ByteWriter, PatchU32RejectsWrappingPosition)
{
    j2k::byte_writer w;
    w.u64(0);  // 8 bytes
    EXPECT_THROW(w.patch_u32(std::numeric_limits<std::size_t>::max() - 3, 1),
                 std::out_of_range);
    EXPECT_THROW(w.patch_u32(5, 1), std::out_of_range);
    EXPECT_NO_THROW(w.patch_u32(4, 1));

    j2k::byte_writer tiny;
    tiny.u16(0);  // < 4 bytes: every position is out of range
    EXPECT_THROW(tiny.patch_u32(0, 1), std::out_of_range);
}

TEST(Codestream, TruncatedTilePayloadRejected)
{
    const auto cs = make_stream(64, 64, 1, 32);  // 2×2 tiles
    const auto info = j2k::read_header(cs);
    ASSERT_FALSE(info.tile_offsets.empty());
    // Cut inside the first tile payload: the directory walk must notice that
    // the declared length exceeds what is left.
    const std::vector<std::uint8_t> trunc(
        cs.begin(), cs.begin() + static_cast<std::ptrdiff_t>(info.tile_offsets[0] + 1));
    EXPECT_THROW((void)j2k::read_header(trunc), j2k::codestream_error);
}

TEST(Codestream, OversizedTileLengthRejected)
{
    auto cs = make_stream(64, 64, 1, 32);
    const auto info = j2k::read_header(cs);
    const std::size_t len_pos = info.tile_offsets[0] - 4;  // u32 length prefix
    patch_be_u32(cs, len_pos, static_cast<std::uint32_t>(cs.size()));  // 1 past end
    EXPECT_THROW((void)j2k::read_header(cs), j2k::codestream_error);
}

TEST(Codestream, TileLengthUint32MaxRejected)
{
    auto cs = make_stream(64, 64, 1, 32);
    const auto info = j2k::read_header(cs);
    patch_be_u32(cs, info.tile_offsets[0] - 4,
                 std::numeric_limits<std::uint32_t>::max());
    EXPECT_THROW((void)j2k::read_header(cs), j2k::codestream_error);
}

TEST(Codestream, LayeredChunkLengthUint32MaxRejected)
{
    constexpr int layers = 3;
    auto cs = make_stream(64, 64, 1, 32, layers);
    const auto info = j2k::read_header(cs);
    ASSERT_EQ(info.quality_layers, layers);
    const std::size_t chunks = info.chunk_offsets.size();
    ASSERT_EQ(chunks, static_cast<std::size_t>(layers) * 4);  // 2×2 tiles
    // The length directory sits immediately before the first chunk payload.
    const std::size_t dir_pos = info.chunk_offsets[0] - 4 * chunks;
    // A hostile entry in the *middle* of the directory: summing all entries
    // before checking would wrap `off` past the end and pass the old check.
    patch_be_u32(cs, dir_pos + 4, std::numeric_limits<std::uint32_t>::max());
    EXPECT_THROW((void)j2k::read_header(cs), j2k::codestream_error);
}

TEST(Codestream, LayeredPayloadTruncationRejected)
{
    auto cs = make_stream(64, 64, 1, 32, 3);
    const auto info = j2k::read_header(cs);
    const auto last = info.chunk_offsets.back() + info.chunk_lengths.back();
    ASSERT_EQ(last, cs.size());
    cs.pop_back();  // payload one byte short of the directory's promise
    EXPECT_THROW((void)j2k::read_header(cs), j2k::codestream_error);
}

TEST(Codestream, LayersInPrefixBoundaries)
{
    const auto cs = make_stream(64, 64, 1, 32, 3);  // 3 layers × 4 tiles
    const auto info = j2k::read_header(cs);
    const int tiles = info.tile_count();
    ASSERT_EQ(tiles, 4);

    // Zero bytes and any prefix that ends before the first layer's last
    // chunk contain no complete layer.
    EXPECT_EQ(info.layers_in_prefix(0), 0);
    const std::size_t l0_end =
        info.chunk_offsets[static_cast<std::size_t>(tiles) - 1] +
        info.chunk_lengths[static_cast<std::size_t>(tiles) - 1];
    EXPECT_EQ(info.layers_in_prefix(l0_end - 1), 0);

    // A prefix ending exactly on a layer boundary counts that layer —
    // off-by-one here silently costs a refinement per downloaded chunk.
    EXPECT_EQ(info.layers_in_prefix(l0_end), 1);
    EXPECT_EQ(info.layers_in_prefix(l0_end + 1), 1);
    for (int l = 1; l <= 3; ++l) {
        const std::size_t idx = static_cast<std::size_t>(l) * tiles - 1;
        const std::size_t end = info.chunk_offsets[idx] + info.chunk_lengths[idx];
        EXPECT_EQ(info.layers_in_prefix(end), l) << "layer " << l;
        if (l < 3) {
            EXPECT_EQ(info.layers_in_prefix(end + 1), l) << "layer " << l;
        }
    }

    // Past the end clamps to the full layer count.
    EXPECT_EQ(info.layers_in_prefix(cs.size()), 3);
    EXPECT_EQ(info.layers_in_prefix(cs.size() + 1000), 3);
    EXPECT_EQ(info.layers_in_prefix(std::numeric_limits<std::size_t>::max()), 3);
}

TEST(Codestream, LayersInPrefixHeaderOnlyAndPlainStreams)
{
    // A prefix that covers only the header + directory has zero layers.
    const auto layered = make_stream(64, 64, 1, 32, 3);
    const auto info = j2k::read_header(layered);
    EXPECT_EQ(info.layers_in_prefix(info.chunk_offsets[0]), 0);

    // Plain streams have no layer structure: the answer is always 1 — the
    // caller cannot partially decode, whatever the byte count says.
    const auto plain = make_stream(64, 64, 1, 64);
    const auto pinfo = j2k::read_header(plain);
    EXPECT_EQ(pinfo.layers_in_prefix(0), 1);
    EXPECT_EQ(pinfo.layers_in_prefix(plain.size()), 1);
    EXPECT_EQ(pinfo.layers_in_prefix(plain.size() + 7), 1);
}

TEST(Codestream, MalformedStreamsFailDecoderConstructionCleanly)
{
    // A grab-bag of hostile prefixes: never crash, always codestream_error.
    const auto valid = make_stream(64, 64, 1, 64);
    for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                            std::size_t{20}, std::size_t{34}}) {
        const std::vector<std::uint8_t> prefix(valid.begin(),
                                               valid.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_THROW(j2k::decoder{prefix}, j2k::codestream_error) << "cut=" << cut;
    }
}

}  // namespace
