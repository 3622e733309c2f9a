// Scalar vs AVX2 kernel differential: the dispatch table promises the two
// tiers are BIT-EXACT, which is what lets the golden hashes, the decoded-
// result cache, and cross-host reproducibility survive vectorisation.  This
// suite forces each tier in turn over (a) every committed corpus stream and
// (b) a seeded sweep of randomly-generated tiles hammering the odd extents
// where mirror-boundary and tail-lane handling live, and requires the decoded
// pixels to be identical byte for byte (and hash to the same FNV-1a value).
//
// gtest_discover_tests runs each TEST in its own process, so the global ISA
// force cannot leak into sibling tests under parallel ctest.  On hosts
// without AVX2 the differential half skips loudly (the scalar tier is then
// the only tier, and the golden suite already pins it).
#include <j2k/j2k.hpp>
#include <j2k/kernels.hpp>
#include <runtime/hash.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

namespace {

using j2k::force_kernel_isa;
using j2k::kernel_isa;
using j2k::reset_kernel_isa;
using runtime::fnv1a_image;

std::vector<std::uint8_t> load(const std::string& name)
{
    const std::string path = std::string{J2K_CORPUS_DIR} + "/" + name;
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error{"missing corpus file: " + path};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// RAII ISA force so a failing assertion cannot leave the process pinned.
struct forced_isa {
    explicit forced_isa(kernel_isa isa) { force_kernel_isa(isa); }
    ~forced_isa() { reset_kernel_isa(); }
};

j2k::image decode_forced(std::span<const std::uint8_t> cs, kernel_isa isa,
                         int discard = 0)
{
    forced_isa f{isa};
    if (discard == 0) return j2k::decode(cs);
    j2k::decoder dec{cs};
    return dec.decode_reduced(discard);
}

#define REQUIRE_AVX2_OR_SKIP()                                                     \
    do {                                                                           \
        if (!j2k::cpu_has_avx2())                                                  \
            GTEST_SKIP() << "host CPU lacks AVX2 — scalar/vector differential "    \
                            "not runnable here (scalar tier is covered by the "    \
                            "golden corpus)";                                      \
    } while (0)

TEST(KernelDifferential, CorpusStreamsDecodeIdenticallyOnBothTiers)
{
    REQUIRE_AVX2_OR_SKIP();
    const char* files[] = {"gray_53.ojk", "rgb_97.ojk", "layered_53.ojk",
                           "odd_65x33.ojk", "gray16_53.ojk"};
    for (const auto* f : files) {
        const auto cs = load(f);
        const j2k::image s = decode_forced(cs, kernel_isa::scalar);
        const j2k::image v = decode_forced(cs, kernel_isa::avx2);
        EXPECT_EQ(s, v) << f;
        EXPECT_EQ(fnv1a_image(s), fnv1a_image(v)) << f;
    }
}

TEST(KernelDifferential, CorpusStreamsMatchTheGoldenHashesUnderTheVectorTier)
{
    // The vector tier must reproduce the committed hashes, not merely agree
    // with whatever scalar produces today.
    REQUIRE_AVX2_OR_SKIP();
    struct golden {
        const char* file;
        std::uint64_t hash;
    };
    constexpr golden k_golden[] = {
        {"gray_53.ojk", 0xEE1435E1050DF733ull},
        {"rgb_97.ojk", 0x2ABEA0B3B87A8999ull},
        {"layered_53.ojk", 0xAA4C7851D4825229ull},
        {"odd_65x33.ojk", 0x80E88702BCF63C11ull},
        {"gray16_53.ojk", 0x58700F9E92184262ull},
    };
    for (const auto& g : k_golden)
        EXPECT_EQ(fnv1a_image(decode_forced(load(g.file), kernel_isa::avx2)), g.hash)
            << g.file;
}

/// One randomly-drawn encode configuration (seeded: failures reproduce).
struct tile_case {
    int w, h, comps, depth, levels, layers, tile;
    j2k::wavelet mode;
    std::uint32_t seed;
};

tile_case draw_case(std::mt19937& rng)
{
    // Extents biased toward the hazard set: vector-width remainders (1..3),
    // mirror-degenerate rows/columns, and one-off-from-tile sizes.
    constexpr int k_extents[] = {1, 2, 3, 5, 8, 16, 31, 32, 33, 63, 64, 65};
    auto pick = [&rng](auto& arr) { return arr[rng() % std::size(arr)]; };
    tile_case c{};
    c.w = pick(k_extents);
    c.h = pick(k_extents);
    c.comps = rng() % 2 == 0 ? 1 : 3;
    c.depth = rng() % 2 == 0 ? 8 : 16;
    c.levels = 1 + static_cast<int>(rng() % 3);
    c.layers = rng() % 3 == 0 ? 3 : 1;
    c.tile = rng() % 2 == 0 ? 32 : 64;
    c.mode = rng() % 2 == 0 ? j2k::wavelet::w5_3 : j2k::wavelet::w9_7;
    c.seed = rng();
    return c;
}

std::vector<std::uint8_t> encode_case(const tile_case& c)
{
    const j2k::image src =
        j2k::make_test_image(c.w, c.h, c.comps, c.depth, static_cast<int>(c.seed % 97));
    j2k::codec_params p;
    p.tile_width = c.tile;
    p.tile_height = c.tile;
    p.mode = c.mode;
    p.levels = c.levels;
    p.quality_layers = c.layers;
    return j2k::encode(src, p);
}

TEST(KernelDifferential, RandomTileSweepIsBitExactAcrossTiers)
{
    REQUIRE_AVX2_OR_SKIP();
    std::mt19937 rng{0x6B72A117u};
    constexpr int k_cases = 220;
    int checked = 0;
    for (int i = 0; i < k_cases; ++i) {
        const tile_case c = draw_case(rng);
        const auto cs = encode_case(c);
        const j2k::image s = decode_forced(cs, kernel_isa::scalar);
        const j2k::image v = decode_forced(cs, kernel_isa::avx2);
        ASSERT_EQ(s, v) << "case " << i << ": " << c.w << "x" << c.h << " comps="
                        << c.comps << " depth=" << c.depth << " levels=" << c.levels
                        << " layers=" << c.layers << " tile=" << c.tile << " mode="
                        << (c.mode == j2k::wavelet::w5_3 ? "5/3" : "9/7")
                        << " seed=" << c.seed;
        ASSERT_EQ(fnv1a_image(s), fnv1a_image(v)) << "case " << i;
        ++checked;
    }
    EXPECT_EQ(checked, k_cases);
}

TEST(KernelDifferential, ReducedResolutionDecodesAgreeAcrossTiers)
{
    // decode_reduced exercises the partial-synthesis path (stop_level) whose
    // vertical passes also run on the dispatched kernels.
    REQUIRE_AVX2_OR_SKIP();
    std::mt19937 rng{0x9E3779B9u};
    for (int i = 0; i < 24; ++i) {
        tile_case c = draw_case(rng);
        c.w = std::max(c.w, 16);  // keep a discardable level worth of extent
        c.h = std::max(c.h, 16);
        const auto cs = encode_case(c);
        for (int discard = 1; discard <= c.levels; ++discard) {
            const j2k::image s = decode_forced(cs, kernel_isa::scalar, discard);
            const j2k::image v = decode_forced(cs, kernel_isa::avx2, discard);
            ASSERT_EQ(s, v) << "case " << i << " discard=" << discard;
        }
    }
}

TEST(KernelDifferential, ProgressiveSessionsAgreeAcrossTiersAtEveryLayer)
{
    // The resumable session path (persistent tier-1 state + per-advance
    // synthesis) must be tier-invariant at every refinement, not just at the
    // final image.
    REQUIRE_AVX2_OR_SKIP();
    std::mt19937 rng{0x51A57E11u};
    for (int i = 0; i < 12; ++i) {
        tile_case c = draw_case(rng);
        c.layers = 3;
        const auto cs = encode_case(c);
        forced_isa fs{kernel_isa::scalar};
        j2k::decode_session ss{cs};
        std::vector<j2k::image> scalar_imgs;
        for (int l = 1; l <= ss.total_layers(); ++l)
            scalar_imgs.push_back(ss.advance_to(l));
        reset_kernel_isa();
        forced_isa fv{kernel_isa::avx2};
        j2k::decode_session vs{cs};
        for (int l = 1; l <= vs.total_layers(); ++l)
            ASSERT_EQ(scalar_imgs[static_cast<std::size_t>(l - 1)], vs.advance_to(l))
                << "case " << i << " layer " << l;
    }
}

TEST(KernelDispatch, ForceAndResetRoundTrip)
{
    // Plain dispatch plumbing (valid on any host): forcing scalar must take
    // effect, and reset must restore auto-resolution.
    force_kernel_isa(kernel_isa::scalar);
    EXPECT_EQ(j2k::active_kernel_isa(), kernel_isa::scalar);
    reset_kernel_isa();
    const kernel_isa resolved = j2k::active_kernel_isa();
    if (j2k::cpu_has_avx2() && std::getenv("J2K_FORCE_SCALAR") == nullptr) {
        EXPECT_EQ(resolved, kernel_isa::avx2);
    } else {
        EXPECT_EQ(resolved, kernel_isa::scalar);
    }
    EXPECT_STREQ(j2k::kernel_isa_name(kernel_isa::scalar), "scalar");
    EXPECT_STREQ(j2k::kernel_isa_name(kernel_isa::avx2), "avx2");
}

}  // namespace
