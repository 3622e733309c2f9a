// Resumable decode sessions: every advance_to(l) must be pixel-identical to
// the one-shot path at the same layer cap, and the cumulative tier-1 segment
// bytes must be O(L) — each byte arithmetic-decoded once per session.
#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

namespace {

using j2k::decode_session;
using j2k::image;

bool same_pixels(const image& a, const image& b)
{
    if (a.width() != b.width() || a.height() != b.height() ||
        a.components() != b.components())
        return false;
    for (int c = 0; c < a.components(); ++c) {
        const auto sa = a.comp(c).samples();
        const auto sb = b.comp(c).samples();
        if (!std::equal(sa.begin(), sa.end(), sb.begin())) return false;
    }
    return true;
}

/// One-shot reference: set_max_quality_layers(l); decode_all().
image oneshot(std::span<const std::uint8_t> cs, int layers)
{
    j2k::decoder dec{cs};
    dec.set_max_quality_layers(layers);
    return dec.decode_all();
}

struct stream_case {
    const char* name;
    j2k::codec_params p;
    int width, height, components, bit_depth;
    std::uint32_t seed;
};

std::vector<stream_case> session_cases()
{
    std::vector<stream_case> cases;
    {
        stream_case c{"layered_53_gray", {}, 96, 64, 1, 8, 5};
        c.p.quality_layers = 5;
        cases.push_back(c);
    }
    {
        stream_case c{"layered_97_rgb", {}, 64, 48, 3, 8, 9};
        c.p.mode = j2k::wavelet::w9_7;
        c.p.quality_layers = 4;
        cases.push_back(c);
    }
    {
        // Odd geometry with partial edge tiles and partial code blocks.
        stream_case c{"layered_odd_65x33", {}, 65, 33, 1, 8, 21};
        c.p.tile_width = 32;
        c.p.tile_height = 32;
        c.p.quality_layers = 3;
        cases.push_back(c);
    }
    {
        // 16-bit depth: more bit planes per block, deeper pass sequences.
        stream_case c{"layered_16bit", {}, 48, 48, 1, 16, 33};
        c.p.quality_layers = 4;
        cases.push_back(c);
    }
    {
        // Plain single-layer stream: the session degrades to a full decode.
        stream_case c{"plain_53", {}, 64, 64, 3, 8, 7};
        cases.push_back(c);
    }
    return cases;
}

TEST(DecodeSession, AdvanceToMatchesOneShotAtEveryLayer)
{
    for (const auto& c : session_cases()) {
        const image src =
            j2k::make_test_image(c.width, c.height, c.components, c.bit_depth, c.seed);
        const auto cs = j2k::encode(src, c.p);
        decode_session s{cs};
        ASSERT_EQ(s.total_layers(), std::max(1, c.p.quality_layers)) << c.name;
        for (int l = 1; l <= s.total_layers(); ++l) {
            const image inc = s.advance_to(l);
            const image ref = oneshot(cs, l);
            EXPECT_TRUE(same_pixels(inc, ref)) << c.name << " layer " << l;
            EXPECT_EQ(s.layers_decoded(), l) << c.name;
        }
        EXPECT_TRUE(s.complete()) << c.name;
    }
}

TEST(DecodeSession, AdvanceStepsOneLayerAtATime)
{
    stream_case c{"", {}, 80, 40, 3, 8, 13};
    c.p.quality_layers = 4;
    const image src = j2k::make_test_image(c.width, c.height, c.components, 8, c.seed);
    const auto cs = j2k::encode(src, c.p);
    decode_session s{cs};
    for (int l = 1; l <= 4; ++l) {
        const image inc = s.advance();
        EXPECT_EQ(s.layers_decoded(), l);
        EXPECT_TRUE(same_pixels(inc, oneshot(cs, l))) << "layer " << l;
    }
    // Advancing past the end re-synthesises the full-depth image.
    const image again = s.advance();
    EXPECT_EQ(s.layers_decoded(), 4);
    EXPECT_TRUE(same_pixels(again, oneshot(cs, 0)));
}

TEST(DecodeSession, SegmentBytesAreDecodedOncePerSession)
{
    j2k::codec_params p;
    p.quality_layers = 6;
    const image src = j2k::make_test_image(96, 96, 1, 8, 41);
    const auto cs = j2k::encode(src, p);

    // Incremental session over all 6 layers.
    decode_session s{cs};
    for (int l = 1; l <= 6; ++l) (void)s.advance_to(l);
    const std::uint64_t session_bytes = s.tier1_segment_bytes();

    // One full-depth decode consumes the same segment bytes: the session
    // never re-decodes a layer, however many refinements were emitted.
    decode_session full{cs};
    (void)full.advance_to(0);
    EXPECT_EQ(session_bytes, full.tier1_segment_bytes());

    // The naive restart-per-refinement path would consume the bytes of every
    // prefix: sum over l of bytes(layers 0..l) — strictly more for L > 1.
    std::uint64_t naive_bytes = 0;
    for (int l = 1; l <= 6; ++l) {
        decode_session fresh{cs};
        (void)fresh.advance_to(l);
        naive_bytes += fresh.tier1_segment_bytes();
    }
    EXPECT_GT(naive_bytes, 2 * session_bytes);
}

TEST(DecodeSession, RepeatAdvanceIsSynthesisOnly)
{
    j2k::codec_params p;
    p.quality_layers = 3;
    const image src = j2k::make_test_image(64, 64, 3, 8, 3);
    const auto cs = j2k::encode(src, p);
    decode_session s{cs};
    const image a = s.advance_to(2);
    const std::uint64_t bytes_after = s.tier1_segment_bytes();
    j2k::decode_stats st;
    const image b = s.advance_to(2, &st);  // no new layers: tier-1 idle
    EXPECT_EQ(s.tier1_segment_bytes(), bytes_after);
    EXPECT_EQ(st.t1.passes, 0u);
    EXPECT_GT(st.idwt_samples, 0u);  // downstream stages did re-run
    EXPECT_TRUE(same_pixels(a, b));
}

TEST(DecodeSession, ParallelTilesMatchSerial)
{
    j2k::codec_params p;
    p.tile_width = 32;
    p.tile_height = 32;
    p.quality_layers = 4;
    const image src = j2k::make_test_image(128, 96, 3, 8, 29);
    const auto cs = j2k::encode(src, p);

    decode_session serial{cs};
    decode_session par{cs};
    par.set_threads(4);
    for (int l = 1; l <= 4; ++l) {
        const image a = serial.advance_to(l);
        const image b = par.advance_to(l);
        EXPECT_TRUE(same_pixels(a, b)) << "layer " << l;
    }
    EXPECT_EQ(serial.tier1_segment_bytes(), par.tier1_segment_bytes());
}

TEST(DecodeSession, SessionFromDecoderCarriesMaxPasses)
{
    // Plain stream: a session built from a decoder honours its pass cap, so
    // decode_all-as-wrapper keeps the SNR-scalability contract.
    const image src = j2k::make_test_image(64, 64, 1, 8, 11);
    const auto cs = j2k::encode(src, {});
    j2k::decoder capped{cs};
    capped.set_max_passes(4);
    const image ref = capped.decode_all();
    decode_session s{capped};
    EXPECT_TRUE(same_pixels(s.advance_to(0), ref));
}

TEST(DecodeSession, DecodeAllWrapperMatchesManualStageComposition)
{
    // decode_all is a session wrapper; the staged API must still agree.
    j2k::codec_params p;
    p.quality_layers = 3;
    const image src = j2k::make_test_image(64, 64, 3, 8, 19);
    const auto cs = j2k::encode(src, p);
    j2k::decoder dec{cs};
    image manual{dec.info().width, dec.info().height, dec.info().components,
                 dec.info().bit_depth};
    const auto grid = dec.tiles();
    for (int t = 0; t < static_cast<int>(grid.size()); ++t) {
        const auto tp = dec.idwt(dec.dequantize(dec.entropy_decode(t)));
        for (int c = 0; c < dec.info().components; ++c)
            insert_tile(manual.comp(c), tp.comps[static_cast<std::size_t>(c)],
                        grid[static_cast<std::size_t>(t)]);
    }
    dec.finish(manual);
    EXPECT_TRUE(same_pixels(dec.decode_all(), manual));
}

TEST(DecodeSession, CorruptLayerPoisonsTheSession)
{
    j2k::codec_params p;
    p.quality_layers = 4;
    const image src = j2k::make_test_image(64, 64, 1, 8, 23);
    auto cs = j2k::encode(src, p);
    const j2k::stream_info info = j2k::read_header(cs);
    // Overwrite the first segment length of the last layer's chunk (u32 after
    // the pass-count byte) with a hostile value.  read_header walks every
    // segment length, so a session over those bytes is refused up front.
    const std::size_t off = static_cast<std::size_t>(info.chunk_offsets[3]) + 1;
    auto corrupt = [&] { cs[off] = cs[off + 1] = cs[off + 2] = cs[off + 3] = 0xFF; };
    const std::vector<std::uint8_t> sound = cs;
    corrupt();
    EXPECT_THROW(decode_session{cs}, j2k::codestream_error);

    // The session references the caller's bytes, so they can still go bad
    // after it is built.  Earlier layers stay sound; advancing into the
    // corrupt layer must throw and poison the session.
    cs = sound;
    decode_session s{cs};
    corrupt();
    (void)s.advance_to(2);  // fine: corruption is in layer 4
    EXPECT_THROW((void)s.advance_to(4), j2k::codestream_error);
    EXPECT_THROW((void)s.advance_to(1), std::logic_error);
}

TEST(DecodeSession, LayersInPrefixDrivesAdvance)
{
    // The intended streaming loop: as bytes arrive, layers_in_prefix says how
    // deep the session may advance.
    j2k::codec_params p;
    p.quality_layers = 4;
    const image src = j2k::make_test_image(64, 48, 1, 8, 37);
    const auto cs = j2k::encode(src, p);
    const j2k::stream_info info = j2k::read_header(cs);
    decode_session s{cs};
    for (std::size_t bytes : {cs.size() / 3, 2 * cs.size() / 3, cs.size()}) {
        const int avail = info.layers_in_prefix(bytes);
        if (avail <= s.layers_decoded()) continue;
        const image img = s.advance_to(avail);
        EXPECT_TRUE(same_pixels(img, oneshot(cs, avail))) << bytes << " bytes";
    }
    EXPECT_TRUE(s.complete());
}

}  // namespace
