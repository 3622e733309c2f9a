// ccsds — header validation, bit-exact round trips across the geometry
// matrix, hostile-input hardening (truncation, corruption, resource-bomb
// headers), the backend registration contract, and a mutation fuzzer.
//
// Iteration count of the fuzzer scales with the FUZZ_ITERS environment
// variable (default 300; the nightly CI leg raises it).
#include <ccsds/ccsds123.hpp>
#include <codec/backend.hpp>
#include <codec/error.hpp>
#include <codec/image.hpp>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory_resource>
#include <random>
#include <vector>

namespace {

using codec::codestream_error;
using codec::image;

std::size_t fuzz_iters()
{
    if (const char* env = std::getenv("FUZZ_ITERS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return 300;
}

// ---- header ----------------------------------------------------------------

TEST(CcsdsHeader, RoundTripsThroughEncode)
{
    const image img = codec::make_test_image(40, 24, 5, 12, 3);
    ccsds::params p;
    p.pred_bands = 4;
    p.mode = ccsds::neighbor_mode::narrow;
    const auto cs = ccsds::encode(img, p);
    const auto info = ccsds::read_header(cs);
    EXPECT_EQ(info.width, 40);
    EXPECT_EQ(info.height, 24);
    EXPECT_EQ(info.bands, 5);
    EXPECT_EQ(info.bit_depth, 12);
    EXPECT_EQ(info.pred_bands, 4);
    EXPECT_EQ(info.mode, ccsds::neighbor_mode::narrow);
}

TEST(CcsdsHeader, EveryStructuralViolationIsRejected)
{
    const auto good = ccsds::encode(codec::make_test_image(8, 8, 2, 8, 1));
    auto corrupt = [&](std::size_t off, std::uint8_t v) {
        auto bad = good;
        bad[off] = v;
        EXPECT_THROW((void)ccsds::read_header(bad), codestream_error)
            << "offset " << off << " value " << int(v);
        EXPECT_THROW((void)ccsds::decode(bad), codestream_error);
    };
    corrupt(0, 0x00);   // magic
    corrupt(4, 99);     // version
    corrupt(5, 2);      // mode byte beyond narrow
    corrupt(7, 0);      // bands = 0 (big-endian u16 at 6..7)
    corrupt(16, 0);     // bit depth below 2
    corrupt(16, 17);    // bit depth above 16
    corrupt(17, 16);    // pred_bands above 15
    corrupt(18, 1);     // reserved must be zero
    corrupt(19, 0x80);  // reserved must be zero

    // Truncated header: every prefix shorter than the fixed header.
    for (std::size_t n = 0; n < ccsds::k_header_size; ++n) {
        const std::span<const std::uint8_t> p{good.data(), n};
        EXPECT_THROW((void)ccsds::read_header(p), codestream_error) << n;
        EXPECT_THROW((void)ccsds::decode(p), codestream_error) << n;
    }
}

TEST(CcsdsHeader, ResourceBombGeometryIsRejectedBeforeAllocation)
{
    auto craft = [](std::uint16_t bands, std::uint32_t w, std::uint32_t h) {
        std::vector<std::uint8_t> cs(ccsds::k_header_size, 0);
        cs[0] = 0x43; cs[1] = 0x31; cs[2] = 0x32; cs[3] = 0x33;  // "C123"
        cs[4] = ccsds::k_version;
        cs[5] = 0;  // full
        cs[6] = static_cast<std::uint8_t>(bands >> 8);
        cs[7] = static_cast<std::uint8_t>(bands);
        for (int i = 0; i < 4; ++i) {
            cs[8 + i] = static_cast<std::uint8_t>(w >> (24 - 8 * i));
            cs[12 + i] = static_cast<std::uint8_t>(h >> (24 - 8 * i));
        }
        cs[16] = 8;  // depth
        cs[17] = 0;  // P
        return cs;
    };
    // Per-axis cap.
    EXPECT_THROW((void)ccsds::read_header(craft(1, (1u << 20) + 1, 1)),
                 codestream_error);
    EXPECT_THROW((void)ccsds::read_header(craft(1, 1, (1u << 20) + 1)),
                 codestream_error);
    // Axes individually fine, product over the total-sample cap.
    EXPECT_THROW((void)ccsds::read_header(craft(255, 1u << 20, 1u << 6)),
                 codestream_error);
    EXPECT_THROW((void)ccsds::read_header(craft(3, 1 << 14, 1 << 14)),
                 codestream_error);
    // Band count beyond the component ceiling.
    EXPECT_THROW((void)ccsds::read_header(craft(256, 4, 4)), codestream_error);
    // Zero-sized axes.
    EXPECT_THROW((void)ccsds::read_header(craft(1, 0, 4)), codestream_error);
    EXPECT_THROW((void)ccsds::read_header(craft(1, 4, 0)), codestream_error);
}

// ---- lossless round trips --------------------------------------------------

TEST(CcsdsRoundTrip, BitExactAcrossBandsDepthsModesAndPredictorOrder)
{
    std::uint32_t seed = 11;
    for (const int bands : {1, 3, 8, 17}) {
        for (const int depth : {2, 8, 12, 16}) {
            for (const auto mode :
                 {ccsds::neighbor_mode::full, ccsds::neighbor_mode::narrow}) {
                for (const int pb : {0, 3, 15}) {
                    const image src =
                        codec::make_test_image(37, 19, bands, depth, seed++);
                    ccsds::params p;
                    p.pred_bands = pb;
                    p.mode = mode;
                    const auto cs = ccsds::encode(src, p);
                    EXPECT_EQ(ccsds::decode(cs), src)
                        << bands << " bands, depth " << depth << ", mode "
                        << int(mode) << ", P=" << pb;
                }
            }
        }
    }
}

TEST(CcsdsRoundTrip, DegenerateGeometrySurvives)
{
    std::uint32_t seed = 101;
    for (const auto& [w, h] : {std::pair{1, 1}, {1, 64}, {64, 1}, {2, 3}}) {
        const image src = codec::make_test_image(w, h, 4, 16, seed++);
        EXPECT_EQ(ccsds::decode(ccsds::encode(src)), src) << w << "x" << h;
    }
}

TEST(CcsdsRoundTrip, ConstantAndExtremalPlanesSurvive)
{
    // Flat planes, all-zero, all-maxval: the adaptive coder's corner cases.
    for (const int fill : {0, 1, 65535}) {
        image src{9, 7, 3, 16};
        for (int c = 0; c < 3; ++c)
            for (std::int32_t& v : src.comp(c).samples()) v = fill;
        EXPECT_EQ(ccsds::decode(ccsds::encode(src)), src) << fill;
    }
}

TEST(CcsdsRoundTrip, EncoderClampsSamplesOutsideTheDeclaredDepth)
{
    image src{4, 4, 1, 8};
    auto& s = src.comp(0).samples();
    s[0] = -5;
    s[1] = 256;
    s[2] = 99999;
    s[3] = 255;
    const image out = ccsds::decode(ccsds::encode(src));
    EXPECT_EQ(out.comp(0).samples()[0], 0);
    EXPECT_EQ(out.comp(0).samples()[1], 255);
    EXPECT_EQ(out.comp(0).samples()[2], 255);
    EXPECT_EQ(out.comp(0).samples()[3], 255);
}

TEST(CcsdsRoundTrip, CallerMemoryResourceBacksScratchWithoutChangingPixels)
{
    const image src = codec::make_test_image(33, 21, 6, 16, 77);
    const auto cs = ccsds::encode(src);
    std::pmr::monotonic_buffer_resource arena{1 << 16};
    EXPECT_EQ(ccsds::decode(cs, &arena), src);
}

// ---- Golomb parameter -----------------------------------------------------

TEST(CcsdsGolombK, ClosedFormMatchesTheSearchLoop)
{
    // The rule as a search: the largest k <= 16 with gamma * 2^k <= accum,
    // or 0 when accum < 2 * gamma.
    const auto search = [](std::uint32_t gamma, std::uint64_t accum) {
        int k = 0;
        while (k < 16 && (std::uint64_t{gamma} << (k + 1)) <= accum) ++k;
        return k;
    };
    for (std::uint32_t gamma = 1; gamma <= 63; ++gamma) {
        std::vector<std::uint64_t> accums;
        // Either side of every power-of-two boundary, where k steps.
        for (int j = 0; j <= 22; ++j) {
            const std::uint64_t edge = std::uint64_t{gamma} << j;
            accums.insert(accums.end(), {edge - 1, edge, edge + 1});
        }
        for (std::uint64_t a = 0; a < 4096; ++a) accums.push_back(a);
        for (const std::uint64_t a : accums) {
            ASSERT_EQ(ccsds::detail::golomb_k(gamma, a), search(gamma, a))
                << "gamma " << gamma << ", accum " << a;
        }
    }
    static_assert(ccsds::detail::golomb_k(1, 4) == 2);
    static_assert(ccsds::detail::golomb_k(3, 5) == 0);
    static_assert(ccsds::detail::golomb_k(1, std::uint64_t{1} << 40) == 16);
}

// ---- hostile payloads ------------------------------------------------------

TEST(CcsdsHostile, EveryTruncationPointIsATypedRejection)
{
    // The encoder never emits a wholly-padding trailing byte, so every strict
    // prefix is missing residual bits and must throw — never crash, never
    // return a short image.  Every complete code before the cut decodes as in
    // the full stream, so past the header the first code that crosses the
    // cut must fail, and with the truncation error, not a range complaint.
    // 16-bit cubes open each band with escape codes, 4-bit ones are all
    // short Rice codes.
    for (const image& src : {codec::make_test_image(23, 11, 4, 12, 5),
                             codec::make_test_image(9, 5, 3, 16, 17),
                             codec::make_test_image(9, 5, 3, 4, 17)}) {
        const auto cs = ccsds::encode(src);
        for (std::size_t cut = 0; cut < cs.size(); ++cut) {
            try {
                (void)ccsds::decode(std::span<const std::uint8_t>{cs.data(), cut});
                ADD_FAILURE() << "cut " << cut << " decoded";
            } catch (const codestream_error& e) {
                if (cut >= ccsds::k_header_size) {
                    EXPECT_NE(std::strstr(e.what(), "truncated codestream"), nullptr)
                        << "cut " << cut << ": " << e.what();
                }
            }
        }
    }
}

TEST(CcsdsHostile, PayloadCorruptionNeverCrashes)
{
    const image src = codec::make_test_image(19, 13, 3, 10, 9);
    const auto cs = ccsds::encode(src);
    std::mt19937 rng{0xC123u};
    for (std::size_t i = 0; i < 200; ++i) {
        auto bad = cs;
        const std::size_t off =
            ccsds::k_header_size +
            rng() % (bad.size() - ccsds::k_header_size);
        bad[off] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        try {
            const image out = ccsds::decode(bad);
            // Wrong pixels are acceptable for payload corruption; geometry
            // and sample range must still hold.
            EXPECT_EQ(out.width(), src.width());
            EXPECT_EQ(out.height(), src.height());
            EXPECT_EQ(out.components(), src.components());
        } catch (const codestream_error&) {
            // Typed rejection — the documented failure mode.
        }
    }
}

// ---- backend contract ------------------------------------------------------

TEST(CcsdsBackend, RegistersOnceWithTheExpectedIdentityAndCaps)
{
    const codec::backend& be = ccsds::ensure_backend_registered();
    EXPECT_EQ(&be, &ccsds::ensure_backend_registered());  // idempotent
    EXPECT_EQ(codec::find_backend(ccsds::k_codec_wire_id), &be);
    EXPECT_EQ(codec::find_backend("ccsds123"), &be);
    EXPECT_EQ(be.wire_id(), ccsds::k_codec_wire_id);
    EXPECT_EQ(be.name(), "ccsds123");

    const codec::capabilities caps = be.caps();
    EXPECT_FALSE(caps.resolution_reduction);
    EXPECT_FALSE(caps.quality_layers);
    EXPECT_FALSE(caps.pass_cap);
    EXPECT_FALSE(caps.progressive);
    EXPECT_EQ(caps.max_components, 255);
}

TEST(CcsdsBackend, DecodesThroughTheRegistryAndRejectsReductionKnobs)
{
    const codec::backend& be = ccsds::ensure_backend_registered();
    const image src = codec::make_test_image(16, 16, 2, 16, 21);
    const auto cs = ccsds::encode(src);
    EXPECT_EQ(be.decode(cs, {}), src);

    // A lossless codec has no reduced-fidelity decode: each knob is a typed
    // rejection, not a silent ignore.
    codec::decode_request r1;
    r1.discard_levels = 1;
    EXPECT_THROW((void)be.decode(cs, r1), codestream_error);
    codec::decode_request r2;
    r2.max_quality_layers = 1;
    EXPECT_THROW((void)be.decode(cs, r2), codestream_error);
    codec::decode_request r3;
    r3.max_passes = 1;
    EXPECT_THROW((void)be.decode(cs, r3), codestream_error);
}

// ---- encoder input validation ----------------------------------------------

TEST(CcsdsEncode, RejectsUnencodableGeometry)
{
    EXPECT_THROW((void)ccsds::encode(image{4, 4, 1, 1}),
                 std::invalid_argument);  // depth below 2
    ccsds::params p;
    p.pred_bands = 16;
    EXPECT_THROW((void)ccsds::encode(codec::make_test_image(4, 4, 1), p),
                 std::invalid_argument);
    p.pred_bands = -1;
    EXPECT_THROW((void)ccsds::encode(codec::make_test_image(4, 4, 1), p),
                 std::invalid_argument);
    EXPECT_THROW((void)ccsds::encode(image{}), std::invalid_argument);
}

// ---- mutation fuzzer -------------------------------------------------------

TEST(CcsdsFuzz, RandomMutationsOfValidStreamsNeverCrash)
{
    const std::size_t iters = fuzz_iters();
    std::mt19937 rng{20260808u};
    const image base = codec::make_test_image(21, 17, 5, 14, 31);
    const auto good = ccsds::encode(base);
    for (std::size_t i = 0; i < iters; ++i) {
        auto bad = good;
        // 1..8 random byte smashes anywhere in the stream, plus an occasional
        // truncation or extension.
        const int edits = 1 + int(rng() % 8);
        for (int e = 0; e < edits; ++e)
            bad[rng() % bad.size()] = static_cast<std::uint8_t>(rng());
        if (rng() % 4 == 0) bad.resize(rng() % (bad.size() + 1));
        if (rng() % 8 == 0) bad.insert(bad.end(), rng() % 32,
                                       static_cast<std::uint8_t>(rng()));
        try {
            const image out = ccsds::decode(bad);
            EXPECT_GT(out.width(), 0) << "iter " << i;
            EXPECT_GT(out.height(), 0) << "iter " << i;
        } catch (const codestream_error&) {
            // Typed rejection — the documented failure mode for any mutation.
        }
    }
}

}  // namespace
