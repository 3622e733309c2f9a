// SNR scalability (pass truncation) and codestream robustness.
#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

#include <random>

namespace {

using j2k::image;

TEST(Scalability, FullPassesEqualsUntruncatedDecode)
{
    const image img = j2k::make_test_image(64, 64, 1);
    const auto cs = j2k::encode(img, j2k::codec_params{});
    j2k::decoder dec{cs};
    dec.set_max_passes(0);
    const auto a = dec.decode_all();
    dec.set_max_passes(1000);  // more than any block has
    const auto b = dec.decode_all();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, img);
}

TEST(Scalability, QualityImprovesMonotonicallyWithPasses)
{
    const image img = j2k::make_test_image(128, 128, 3);
    j2k::codec_params p;
    p.tile_width = 64;
    p.tile_height = 64;
    const auto cs = j2k::encode(img, p);
    j2k::decoder dec{cs};

    double prev_psnr = 0.0;
    for (int passes : {3, 7, 13, 19, 0 /* all */}) {
        dec.set_max_passes(passes);
        const auto out = dec.decode_all();
        const double q = j2k::psnr(img, out);
        const double qv = std::isinf(q) ? 1000.0 : q;
        EXPECT_GE(qv, prev_psnr - 0.25)
            << "quality regressed at " << passes << " passes";
        prev_psnr = qv;
    }
    // Full decode of the reversible stream is exact.
    dec.set_max_passes(0);
    EXPECT_EQ(dec.decode_all(), img);
}

TEST(Scalability, FewerPassesMeanFewerMqDecisions)
{
    // This is the rate/complexity knob: truncating passes must cut the
    // arithmetic-decoding work (the dominant cost in Figure 1).
    const image img = j2k::make_test_image(64, 64, 1);
    const auto cs = j2k::encode(img, j2k::codec_params{});
    j2k::decoder dec{cs};

    j2k::tier1_stats full;
    dec.set_max_passes(0);
    (void)dec.entropy_decode(0, &full);
    j2k::tier1_stats few;
    dec.set_max_passes(4);
    (void)dec.entropy_decode(0, &few);
    EXPECT_LT(few.mq_decisions, full.mq_decisions / 2);
    // `passes` aggregates over all code blocks of the tile; with a cap of 4
    // per block it must drop well below the full count.
    EXPECT_LT(few.passes, full.passes / 2);
}

TEST(Scalability, Tier1TruncationIsPrefixConsistent)
{
    // Decoding N passes then comparing against the (N)-pass prefix of a
    // fresh decode must agree — truncation is deterministic.
    std::mt19937 rng{77};
    std::vector<std::int32_t> coeffs(32 * 32);
    for (auto& c : coeffs) {
        c = static_cast<std::int32_t>(rng() % 512);
        if (rng() % 2) c = -c;
    }
    const auto cb = j2k::tier1_encode(coeffs.data(), 32, 32, j2k::band::ll);
    for (int passes = 1; passes <= cb.pass_count(); ++passes) {
        std::vector<std::int32_t> a(coeffs.size());
        std::vector<std::int32_t> b(coeffs.size());
        j2k::tier1_decode(cb, a.data(), j2k::band::ll, nullptr, passes);
        j2k::tier1_decode(cb, b.data(), j2k::band::ll, nullptr, passes);
        EXPECT_EQ(a, b) << "passes=" << passes;
    }
    // And the full count reproduces the coefficients exactly.
    std::vector<std::int32_t> full(coeffs.size());
    j2k::tier1_decode(cb, full.data(), j2k::band::ll, nullptr, cb.pass_count());
    EXPECT_EQ(full, coeffs);
}

TEST(Scalability, TruncatedMagnitudesAreLowerBounds)
{
    // Partial decoding may only lack low-order bits: |truncated| <= |full|
    // and the sign of every significant coefficient matches.
    std::mt19937 rng{5};
    std::vector<std::int32_t> coeffs(32 * 32);
    for (auto& c : coeffs) {
        c = static_cast<std::int32_t>(rng() % 1024);
        if (rng() % 2) c = -c;
    }
    const auto cb = j2k::tier1_encode(coeffs.data(), 32, 32, j2k::band::hh);
    std::vector<std::int32_t> part(coeffs.size());
    j2k::tier1_decode(cb, part.data(), j2k::band::hh, nullptr, cb.pass_count() / 2);
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
        EXPECT_LE(std::abs(part[i]), std::abs(coeffs[i])) << i;
        if (part[i] != 0) {
            EXPECT_EQ(part[i] < 0, coeffs[i] < 0) << i;
        }
    }
}

// ---- resolution scalability ----

TEST(Resolution, ReducedDecodeMatchesTileLLBands)
{
    // Lossless: the half-resolution decode must equal the LL band of each
    // tile's forward transform (the 5/3 path is exact).
    const image img = j2k::make_test_image(128, 128, 1);
    j2k::codec_params p;
    p.tile_width = 64;
    p.tile_height = 64;
    p.levels = 3;
    const auto cs = j2k::encode(img, p);
    j2k::decoder dec{cs};
    const image half = dec.decode_reduced(1);
    ASSERT_EQ(half.width(), 64);
    ASSERT_EQ(half.height(), 64);

    // Build the expectation: per tile, DC-shift + DWT the original, keep LL.
    image work = img;
    j2k::dc_shift_forward(work);
    image expect{64, 64, 1};
    for (const auto& tr : j2k::tile_grid(128, 128, 64, 64)) {
        j2k::plane tp = j2k::extract_tile(work.comp(0), tr);
        j2k::dwt53_forward(tp, 3);
        j2k::dwt53_inverse_partial(tp, 3, 1);  // synthesise back to level 1
        const j2k::tile_rect crop{0, 0, 0, 32, 32};
        const j2k::tile_rect dst{tr.index, tr.x0 / 2, tr.y0 / 2, 32, 32};
        j2k::insert_tile(expect.comp(0), j2k::extract_tile(tp, crop), dst);
    }
    j2k::dc_shift_inverse(expect);
    EXPECT_EQ(half, expect);
}

TEST(Resolution, EachDiscardHalvesTheOutput)
{
    const image img = j2k::make_test_image(96, 96, 3);
    j2k::codec_params p;
    p.tile_width = 96;
    p.tile_height = 96;
    p.levels = 3;
    const auto cs = j2k::encode(img, p);
    j2k::decoder dec{cs};
    EXPECT_EQ(dec.decode_reduced(0), img);
    for (int d = 1; d <= 3; ++d) {
        const image r = dec.decode_reduced(d);
        EXPECT_EQ(r.width(), (96 + (1 << d) - 1) >> d) << d;
        EXPECT_EQ(r.components(), 3);
    }
    EXPECT_THROW((void)dec.decode_reduced(4), std::invalid_argument);
    EXPECT_THROW((void)dec.decode_reduced(-1), std::invalid_argument);
}

TEST(Resolution, ReducedLossyDecodeIsReasonable)
{
    const image img = j2k::make_test_image(64, 64, 3);
    j2k::codec_params p;
    p.mode = j2k::wavelet::w9_7;
    p.quant.base_step = 1.0 / 128.0;
    const auto cs = j2k::encode(img, p);
    j2k::decoder dec{cs};
    const image half = dec.decode_reduced(1);
    EXPECT_EQ(half.width(), 32);
    // Sanity: values stay within the sample range (DC shift clamps).
    for (int c = 0; c < 3; ++c)
        for (auto v : half.comp(c).samples()) {
            EXPECT_GE(v, 0);
            EXPECT_LE(v, 255);
        }
}

// ---- robustness / failure injection ----

TEST(Robustness, ImplausiblePlaneCountRejected)
{
    j2k::codeblock cb;
    cb.width = 4;
    cb.height = 4;
    cb.num_planes = 200;  // corrupted header
    std::vector<std::int32_t> out(16);
    // num_planes comes from the codestream, so the rejection is a
    // codestream_error — the contract the fuzz harness enforces.
    EXPECT_THROW(j2k::tier1_decode(cb, out.data(), j2k::band::ll), j2k::codestream_error);
}

TEST(Robustness, GarbageCodewordDecodesWithoutCrashing)
{
    // MQ decoding of arbitrary bytes must terminate (pass structure bounds
    // the work) and never read out of range.
    std::mt19937 rng{123};
    for (int trial = 0; trial < 20; ++trial) {
        j2k::codeblock cb;
        cb.width = 16;
        cb.height = 16;
        cb.num_planes = 1 + static_cast<int>(rng() % 12);
        cb.data.resize(rng() % 300);
        for (auto& b : cb.data) b = static_cast<std::uint8_t>(rng());
        std::vector<std::int32_t> out(256);
        j2k::tier1_decode(cb, out.data(), j2k::band::lh);  // must not throw/crash
    }
}

TEST(Robustness, TruncatedTilePayloadThrows)
{
    const image img = j2k::make_test_image(32, 32, 1);
    auto cs = j2k::encode(img, j2k::codec_params{});
    // Keep the header + tile directory valid but cut into the last tile.
    auto cut = cs;
    cut.resize(cut.size() - 5);
    EXPECT_THROW((void)j2k::read_header(cut), j2k::codestream_error);
}

TEST(Robustness, BitFlipsEitherThrowOrDecode)
{
    // Flipping bytes inside tile payloads must never crash: either the
    // container layer rejects the stream or the decode completes (possibly
    // with wrong pixels).
    const image img = j2k::make_test_image(48, 48, 1);
    const auto cs = j2k::encode(img, j2k::codec_params{});
    std::mt19937 rng{321};
    int decoded = 0;
    int rejected = 0;
    for (int trial = 0; trial < 30; ++trial) {
        auto bad = cs;
        // Flip three bytes past the fixed header.
        for (int f = 0; f < 3; ++f)
            bad[40 + rng() % (bad.size() - 40)] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        try {
            (void)j2k::decode(bad);
            ++decoded;
        } catch (const std::exception&) {
            ++rejected;
        }
    }
    EXPECT_EQ(decoded + rejected, 30);
}

}  // namespace
