// Full codec: lossless exactness, lossy quality, staged decoding, container
// robustness.
#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace {

using j2k::codec_params;
using j2k::image;
using j2k::wavelet;

TEST(Codec, LosslessRoundTripGrey)
{
    const image img = j2k::make_test_image(96, 64, 1);
    codec_params p;
    p.mode = wavelet::w5_3;
    const auto cs = j2k::encode(img, p);
    const image out = j2k::decode(cs);
    EXPECT_EQ(out, img);
}

TEST(Codec, LosslessRoundTripRgb)
{
    const image img = j2k::make_test_image(128, 128, 3);
    codec_params p;
    p.mode = wavelet::w5_3;
    p.tile_width = 32;
    p.tile_height = 32;
    const auto cs = j2k::encode(img, p);
    const image out = j2k::decode(cs);
    EXPECT_EQ(out, img);
}

TEST(Codec, LosslessOddGeometryAndTiles)
{
    const image img = j2k::make_test_image(101, 67, 3);
    codec_params p;
    p.mode = wavelet::w5_3;
    p.tile_width = 48;
    p.tile_height = 32;
    p.levels = 4;
    const auto cs = j2k::encode(img, p);
    EXPECT_EQ(j2k::decode(cs), img);
}

TEST(Codec, LossyReconstructionQuality)
{
    const image img = j2k::make_test_image(128, 128, 3);
    codec_params p;
    p.mode = wavelet::w9_7;
    p.quant.base_step = 1.0 / 128.0;
    const auto cs = j2k::encode(img, p);
    const image out = j2k::decode(cs);
    EXPECT_GT(j2k::psnr(img, out), 30.0);
}

TEST(Codec, LossyStepControlsRateAndQuality)
{
    const image img = j2k::make_test_image(128, 128, 1);
    codec_params fine;
    fine.mode = wavelet::w9_7;
    fine.quant.base_step = 1.0 / 256.0;
    codec_params coarse = fine;
    coarse.quant.base_step = 1.0 / 16.0;
    const auto cs_fine = j2k::encode(img, fine);
    const auto cs_coarse = j2k::encode(img, coarse);
    EXPECT_LT(cs_coarse.size(), cs_fine.size());
    EXPECT_GT(j2k::psnr(img, j2k::decode(cs_fine)),
              j2k::psnr(img, j2k::decode(cs_coarse)));
}

TEST(Codec, LosslessCompressesTestImage)
{
    const image img = j2k::make_test_image(256, 256, 1);
    codec_params p;
    p.mode = wavelet::w5_3;
    const auto cs = j2k::encode(img, p);
    const std::size_t raw = 256u * 256u;  // 8-bit samples
    EXPECT_LT(cs.size(), raw);  // must actually compress
}

TEST(Codec, StagedDecodeMatchesDecodeAll)
{
    const image img = j2k::make_test_image(96, 96, 3);
    codec_params p;
    p.mode = wavelet::w5_3;
    p.tile_width = 48;
    p.tile_height = 48;
    const auto cs = j2k::encode(img, p);

    j2k::decoder dec{cs};
    ASSERT_EQ(dec.tile_count(), 4);
    image assembled{dec.info().width, dec.info().height, dec.info().components,
                    dec.info().bit_depth};
    const auto grid = dec.tiles();
    for (int t = 0; t < dec.tile_count(); ++t) {
        const auto tc = dec.entropy_decode(t);
        const auto tw = dec.dequantize(tc);
        const auto tp = dec.idwt(tw);
        for (int c = 0; c < dec.info().components; ++c)
            j2k::insert_tile(assembled.comp(c), tp.comps[static_cast<std::size_t>(c)],
                             grid[static_cast<std::size_t>(t)]);
    }
    dec.finish(assembled);
    EXPECT_EQ(assembled, img);
}

TEST(Codec, TilesDecodeIndependentlyInAnyOrder)
{
    const image img = j2k::make_test_image(64, 64, 1);
    codec_params p;
    p.tile_width = 16;
    p.tile_height = 16;
    const auto cs = j2k::encode(img, p);
    j2k::decoder dec{cs};
    image assembled{64, 64, 1};
    const auto grid = dec.tiles();
    for (int t = dec.tile_count() - 1; t >= 0; --t) {  // reverse order
        const auto tp = dec.idwt(dec.dequantize(dec.entropy_decode(t)));
        j2k::insert_tile(assembled.comp(0), tp.comps[0], grid[static_cast<std::size_t>(t)]);
    }
    dec.finish(assembled);
    EXPECT_EQ(assembled, img);
}

TEST(Codec, StatsReflectWorkDone)
{
    const image img = j2k::make_test_image(64, 64, 3);
    codec_params p;
    p.tile_width = 32;
    p.tile_height = 32;
    const auto cs = j2k::encode(img, p);
    j2k::decode_stats st;
    (void)j2k::decode(cs, &st);
    EXPECT_GT(st.t1.mq_decisions, 0u);
    EXPECT_EQ(st.iq_samples, 64u * 64u * 3u);
    EXPECT_EQ(st.idwt_samples, 64u * 64u * 3u);
    EXPECT_EQ(st.ict_samples, 64u * 64u * 3u);
    EXPECT_EQ(st.dc_samples, 64u * 64u * 3u);
}

TEST(Codec, SixteenBitDepthRoundTrips)
{
    const image img = j2k::make_test_image(48, 48, 1, 12);
    codec_params p;
    p.mode = wavelet::w5_3;
    const auto cs = j2k::encode(img, p);
    EXPECT_EQ(j2k::decode(cs), img);
}

TEST(Codec, PaperWorkload16Tiles3Components)
{
    // The paper's Table 1 workload: 16 tiles, 3 components.
    const image img = j2k::make_test_image(256, 256, 3);
    codec_params p;
    p.tile_width = 64;
    p.tile_height = 64;
    const auto cs = j2k::encode(img, p);
    j2k::decoder dec{cs};
    EXPECT_EQ(dec.tile_count(), 16);
    EXPECT_EQ(j2k::decode(cs), img);
}

TEST(Codec, ParallelDecodeMatchesSerial)
{
    const image img = j2k::make_test_image(256, 256, 3);
    codec_params p;
    p.tile_width = 64;
    p.tile_height = 64;
    const auto cs = j2k::encode(img, p);
    j2k::decoder dec{cs};
    const image serial = dec.decode_all();
    for (int threads : {1, 2, 4, 0}) {
        EXPECT_EQ(dec.decode_all_parallel(threads), serial) << threads;
    }
    EXPECT_EQ(serial, img);
}

// ---- container robustness ----

TEST(Codestream, RejectsBadMagic)
{
    std::vector<std::uint8_t> bogus(64, 0);
    EXPECT_THROW((void)j2k::read_header(bogus), j2k::codestream_error);
}

TEST(Codestream, RejectsTruncatedStream)
{
    const image img = j2k::make_test_image(32, 32, 1);
    auto cs = j2k::encode(img, codec_params{});
    cs.resize(cs.size() / 2);
    EXPECT_THROW((void)j2k::read_header(cs), j2k::codestream_error);
}

TEST(Codestream, RejectsCorruptHeaderFields)
{
    const image img = j2k::make_test_image(32, 32, 1);
    auto cs = j2k::encode(img, codec_params{});
    auto bad = cs;
    bad[13] = 0xFF;  // components byte → 255
    EXPECT_THROW((void)j2k::read_header(bad), j2k::codestream_error);
}

TEST(Codestream, ByteReaderBoundsChecked)
{
    std::vector<std::uint8_t> buf{1, 2, 3};
    j2k::byte_reader r{buf};
    (void)r.u16();
    EXPECT_THROW((void)r.u16(), j2k::codestream_error);
    EXPECT_THROW(r.seek(10), j2k::codestream_error);
}

TEST(Codestream, WriterPatchesLengths)
{
    j2k::byte_writer w;
    w.u32(0xAABBCCDD);
    const auto pos = w.size();
    w.u32(0);
    w.u8(0x42);
    w.patch_u32(pos, 0x01020304);
    const auto buf = w.take();
    ASSERT_EQ(buf.size(), 9u);
    EXPECT_EQ(buf[4], 0x01);
    EXPECT_EQ(buf[7], 0x04);
    EXPECT_EQ(buf[8], 0x42);
}

// ---- image utilities ----

TEST(Image, TileGridCoversImage)
{
    const auto tiles = j2k::tile_grid(100, 60, 32, 32);
    ASSERT_EQ(tiles.size(), 8u);  // 4 × 2
    int area = 0;
    for (const auto& t : tiles) area += t.width * t.height;
    EXPECT_EQ(area, 100 * 60);
    EXPECT_EQ(tiles.back().width, 4);   // 100 - 3*32
    EXPECT_EQ(tiles.back().height, 28); // 60 - 32
}

TEST(Image, TileAtIsTheRasterOrderTileOfTheGrid)
{
    struct geometry {
        int w, h, tw, th;
    };
    for (const geometry g : {geometry{100, 60, 32, 32}, geometry{64, 64, 64, 64},
                             geometry{7, 5, 1, 1}, geometry{30, 90, 64, 16},
                             geometry{65, 47, 32, 48}}) {
        std::vector<j2k::tile_rect> expect;  // row by row, clipped at the borders
        for (int y = 0; y < g.h; y += g.th)
            for (int x = 0; x < g.w; x += g.tw)
                expect.push_back({static_cast<int>(expect.size()), x, y,
                                  std::min(g.tw, g.w - x), std::min(g.th, g.h - y)});
        const auto grid = j2k::tile_grid(g.w, g.h, g.tw, g.th);
        ASSERT_EQ(grid.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
            const j2k::tile_rect t = j2k::tile_at(g.w, g.h, g.tw, g.th, static_cast<int>(i));
            for (const j2k::tile_rect& r : {t, grid[i]}) {
                EXPECT_EQ(r.index, expect[i].index);
                EXPECT_EQ(r.x0, expect[i].x0);
                EXPECT_EQ(r.y0, expect[i].y0);
                EXPECT_EQ(r.width, expect[i].width);
                EXPECT_EQ(r.height, expect[i].height);
            }
        }
        const int n = static_cast<int>(expect.size());
        EXPECT_THROW((void)j2k::tile_at(g.w, g.h, g.tw, g.th, n), std::out_of_range);
        EXPECT_THROW((void)j2k::tile_at(g.w, g.h, g.tw, g.th, -1), std::out_of_range);
    }
}

TEST(Image, ExtractInsertRoundTrip)
{
    const image img = j2k::make_test_image(40, 40, 1);
    image copy{40, 40, 1};
    for (const auto& t : j2k::tile_grid(40, 40, 16, 16)) {
        const auto tp = j2k::extract_tile(img.comp(0), t);
        j2k::insert_tile(copy.comp(0), tp, t);
    }
    EXPECT_EQ(copy, img);
}

TEST(Image, PsnrIdenticalIsInfinite)
{
    const image img = j2k::make_test_image(16, 16, 1);
    EXPECT_TRUE(std::isinf(j2k::psnr(img, img)));
}

TEST(ColorTransforms, RctIsExactInverse)
{
    image img = j2k::make_test_image(32, 32, 3);
    const image orig = img;
    j2k::dc_shift_forward(img);
    j2k::rct_forward(img);
    j2k::rct_inverse(img);
    j2k::dc_shift_inverse(img);
    EXPECT_EQ(img, orig);
}

TEST(ColorTransforms, IctRoundTripsWithinRounding)
{
    image img = j2k::make_test_image(32, 32, 3);
    const image orig = img;
    j2k::dc_shift_forward(img);
    j2k::ict_forward(img);
    j2k::ict_inverse(img);
    j2k::dc_shift_inverse(img);
    EXPECT_GT(j2k::psnr(orig, img), 45.0);  // only rounding error
}

TEST(Quantizer, DeadZoneAndMidpointReconstruction)
{
    const double step = 0.5;
    EXPECT_EQ(j2k::quantize_value(0.49, step), 0);
    EXPECT_EQ(j2k::quantize_value(0.51, step), 1);
    EXPECT_EQ(j2k::quantize_value(-0.51, step), -1);
    EXPECT_DOUBLE_EQ(j2k::dequantize_value(0, step), 0.0);
    EXPECT_DOUBLE_EQ(j2k::dequantize_value(1, step), 0.75);
    EXPECT_DOUBLE_EQ(j2k::dequantize_value(-2, step), -1.25);
}

TEST(Quantizer, ErrorBoundedByStep)
{
    const double step = 0.25;
    for (double v = -10.0; v <= 10.0; v += 0.01) {
        const auto q = j2k::quantize_value(v, step);
        const double r = j2k::dequantize_value(q, step);
        EXPECT_LE(std::abs(v - r), step) << v;
    }
}

}  // namespace
