// EBCOT tier-1: exact round trips over block shapes, orientations, and
// coefficient distributions; pass accounting; compression sanity.
#include <j2k/tier1.hpp>

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory_resource>
#include <random>
#include <vector>

namespace {

using j2k::band;
using j2k::codeblock;

std::vector<std::int32_t> random_coeffs(int w, int h, std::uint32_t seed,
                                        int max_mag, double density)
{
    std::mt19937 rng{seed};
    std::uniform_real_distribution<double> u{0.0, 1.0};
    std::vector<std::int32_t> v(static_cast<std::size_t>(w) * h, 0);
    for (auto& x : v) {
        if (u(rng) < density) {
            x = static_cast<std::int32_t>(rng() % static_cast<std::uint32_t>(max_mag)) + 1;
            if (rng() % 2) x = -x;
        }
    }
    return v;
}

void expect_roundtrip(const std::vector<std::int32_t>& coeffs, int w, int h, band b)
{
    const codeblock cb = j2k::tier1_encode(coeffs.data(), w, h, b);
    std::vector<std::int32_t> out(coeffs.size(), -12345);
    j2k::tier1_decode(cb, out.data(), b);
    ASSERT_EQ(out, coeffs);
}

TEST(Tier1, AllZeroBlockProducesNoData)
{
    std::vector<std::int32_t> z(32 * 32, 0);
    const codeblock cb = j2k::tier1_encode(z.data(), 32, 32, band::ll);
    EXPECT_EQ(cb.num_planes, 0);
    EXPECT_TRUE(cb.data.empty());
    EXPECT_EQ(cb.pass_count(), 0);
    std::vector<std::int32_t> out(z.size(), 7);
    j2k::tier1_decode(cb, out.data(), band::ll);
    EXPECT_EQ(out, z);
}

TEST(Tier1, SingleCoefficientRoundTrips)
{
    for (int val : {1, -1, 5, -127, 1024, -32768}) {
        std::vector<std::int32_t> v(32 * 32, 0);
        v[static_cast<std::size_t>(17) * 32 + 11] = val;
        expect_roundtrip(v, 32, 32, band::hl);
    }
}

TEST(Tier1, PassCountFormula)
{
    std::vector<std::int32_t> v(16 * 16, 0);
    v[0] = 5;  // 3 magnitude planes
    const codeblock cb = j2k::tier1_encode(v.data(), 16, 16, band::ll);
    EXPECT_EQ(cb.num_planes, 3);
    EXPECT_EQ(cb.pass_count(), 7);
}

struct T1Case {
    int w;
    int h;
    band b;
    int max_mag;
    double density;
};

class Tier1RoundTrip : public testing::TestWithParam<T1Case> {};

TEST_P(Tier1RoundTrip, Exact)
{
    const auto& c = GetParam();
    const auto coeffs = random_coeffs(c.w, c.h, static_cast<std::uint32_t>(c.w * 131 + c.h + c.max_mag), c.max_mag, c.density);
    expect_roundtrip(coeffs, c.w, c.h, c.b);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Tier1RoundTrip,
    testing::Values(T1Case{32, 32, band::ll, 255, 0.5}, T1Case{32, 32, band::hl, 255, 0.5},
                    T1Case{32, 32, band::lh, 255, 0.5}, T1Case{32, 32, band::hh, 255, 0.5},
                    T1Case{64, 64, band::ll, 1000, 0.3}, T1Case{1, 1, band::hh, 9, 1.0},
                    T1Case{5, 3, band::lh, 100, 0.8}, T1Case{32, 7, band::hl, 31, 0.2},
                    T1Case{7, 32, band::lh, 31, 0.2}, T1Case{4, 4, band::ll, 65535, 1.0},
                    T1Case{33, 29, band::hh, 511, 0.05}, T1Case{32, 32, band::ll, 3, 0.9},
                    T1Case{16, 16, band::hl, 1, 0.01}, T1Case{63, 61, band::hh, 12345, 0.4}));

TEST(Tier1, SparseBlocksCompressWell)
{
    // 1% density: run-length coding in the cleanup pass must pay off.
    const auto coeffs = random_coeffs(64, 64, 99, 7, 0.01);
    const codeblock cb = j2k::tier1_encode(coeffs.data(), 64, 64, band::hh);
    EXPECT_LT(cb.data.size(), 64u * 64u / 8u);  // far below 1 bit/sample
    std::vector<std::int32_t> out(coeffs.size());
    j2k::tier1_decode(cb, out.data(), band::hh);
    EXPECT_EQ(out, coeffs);
}

TEST(Tier1, DenseBlocksStillRoundTrip)
{
    const auto coeffs = random_coeffs(32, 32, 5, 100000, 1.0);
    expect_roundtrip(coeffs, 32, 32, band::ll);
}

TEST(Tier1, StatsAccumulate)
{
    const auto coeffs = random_coeffs(32, 32, 11, 255, 0.5);
    const codeblock cb = j2k::tier1_encode(coeffs.data(), 32, 32, band::ll);
    j2k::tier1_stats st;
    std::vector<std::int32_t> out(coeffs.size());
    j2k::tier1_decode(cb, out.data(), band::ll, &st);
    EXPECT_GT(st.mq_decisions, 0u);
    EXPECT_EQ(st.passes, static_cast<std::uint64_t>(cb.pass_count()));
    EXPECT_GT(st.samples, 0u);
    // Decoding again accumulates rather than overwrites.
    const auto first = st.mq_decisions;
    j2k::tier1_decode(cb, out.data(), band::ll, &st);
    EXPECT_EQ(st.mq_decisions, 2 * first);
}

TEST(Tier1, OrientationAffectsBitstreamButNotValues)
{
    const auto coeffs = random_coeffs(32, 32, 21, 63, 0.3);
    const codeblock a = j2k::tier1_encode(coeffs.data(), 32, 32, band::hl);
    const codeblock b = j2k::tier1_encode(coeffs.data(), 32, 32, band::hh);
    // Different context tables generally give different bytes...
    EXPECT_NE(a.data, b.data);
    // ...but each decodes exactly with its own orientation.
    std::vector<std::int32_t> out(coeffs.size());
    j2k::tier1_decode(a, out.data(), band::hl);
    EXPECT_EQ(out, coeffs);
    j2k::tier1_decode(b, out.data(), band::hh);
    EXPECT_EQ(out, coeffs);
}

TEST(Tier1, RejectsEmptyBlock)
{
    std::vector<std::int32_t> v(4, 0);
    EXPECT_THROW((void)j2k::tier1_encode(v.data(), 0, 2, band::ll), std::invalid_argument);
    codeblock cb;
    EXPECT_THROW(j2k::tier1_decode(cb, v.data(), band::ll), std::invalid_argument);
}

TEST(Tier1, NegativeAndPositiveSignsPreserved)
{
    std::vector<std::int32_t> v(8 * 8, 0);
    for (int i = 0; i < 64; ++i) v[static_cast<std::size_t>(i)] = (i % 2 ? -1 : 1) * (i + 1);
    expect_roundtrip(v, 8, 8, band::ll);
}

TEST(Tier1, StridedWritesFillTheBlockInTheirPlaneAndNothingElse)
{
    // Both decoders write a block straight into its tile plane at the
    // plane's row stride.  Every last-stripe height (h % 4 of 0..3), narrow
    // and full widths, negative and zero coefficients: the block must read
    // back as the dense read(out) does, and no sample outside it may change.
    constexpr std::int32_t k_sentinel = -0x5A5A5A5;
    for (const int h : {1, 2, 3, 4, 5, 6, 7, 8, 13, 32}) {
        for (const int w : {1, 5, 32}) {
            const auto block_seed = static_cast<std::uint32_t>(w * 97 + h);
            auto coeffs = random_coeffs(w, h, block_seed, 300, 0.7);
            coeffs[0] = -std::abs(coeffs[0]) - 1;  // at least one negative sample
            const j2k::layered_codeblock lcb =
                j2k::tier1_encode_layered(coeffs.data(), w, h, band::lh, {1, 2, 0});
            j2k::tier1_block_decoder dec{w, h, lcb.num_planes, band::lh};
            for (const auto& seg : lcb.segments) {
                dec.advance(seg.passes, seg.data);
                std::vector<std::int32_t> dense(coeffs.size(), 7);
                dec.read(dense.data());

                const int stride = w + 9;
                const int x0 = 3;
                const int y0 = 2;
                std::vector<std::int32_t> plane(
                    static_cast<std::size_t>(stride) * (h + 4), k_sentinel);
                dec.read(plane.data() + y0 * stride + x0, stride);
                for (int y = 0; y < h + 4; ++y) {
                    for (int x = 0; x < stride; ++x) {
                        const bool inside =
                            x >= x0 && x < x0 + w && y >= y0 && y < y0 + h;
                        const std::int32_t want =
                            inside ? dense[static_cast<std::size_t>((y - y0) * w + x - x0)]
                                   : k_sentinel;
                        ASSERT_EQ(plane[static_cast<std::size_t>(y * stride + x)], want)
                            << w << "x" << h << " at (" << x << ", " << y << "), "
                            << dec.segments_consumed() << " segments";
                    }
                }
            }
            std::vector<std::int32_t> dense(coeffs.size());
            dec.read(dense.data());
            ASSERT_EQ(dense, coeffs) << w << "x" << h;

            // The one-shot decoder, non-empty and empty, through the same write.
            const codeblock cb = j2k::tier1_encode(coeffs.data(), w, h, band::lh);
            const codeblock empty{w, h, 0, {}};
            for (const codeblock* b : {&cb, &empty}) {
                const int stride = w + 4;
                std::vector<std::int32_t> plane(
                    static_cast<std::size_t>(stride) * (h + 2), k_sentinel);
                j2k::tier1_decode(b->width, b->height, b->num_planes, b->data,
                                  plane.data() + stride + 1, stride, band::lh);
                for (int y = 0; y < h + 2; ++y) {
                    for (int x = 0; x < stride; ++x) {
                        const bool inside = x >= 1 && x < 1 + w && y >= 1 && y < 1 + h;
                        const std::int32_t want =
                            !inside              ? k_sentinel
                            : b->num_planes == 0 ? 0
                                                 : coeffs[static_cast<std::size_t>(
                                                       (y - 1) * w + (x - 1))];
                        ASSERT_EQ(plane[static_cast<std::size_t>(y * stride + x)], want)
                            << w << "x" << h << " one-shot, planes " << b->num_planes
                            << " at (" << x << ", " << y << ")";
                    }
                }
            }
        }
    }
}

/// Passes allocations through to the heap and keeps count of the bytes live.
class counting_resource : public std::pmr::memory_resource {
public:
    std::size_t live = 0;

private:
    void* do_allocate(std::size_t n, std::size_t align) override
    {
        live += n;
        return std::pmr::new_delete_resource()->allocate(n, align);
    }
    void do_deallocate(void* p, std::size_t n, std::size_t align) override
    {
        live -= n;
        std::pmr::new_delete_resource()->deallocate(p, n, align);
    }
    bool do_is_equal(const std::pmr::memory_resource& o) const noexcept override
    {
        return this == &o;
    }
};

TEST(Tier1, BlockDecoderResidentBytesMatchItsAllocations)
{
    // decode_session::resident_bytes() (the cache's budget for resumable
    // sessions) sums this estimate, so it must track the real layout: every
    // per-sample byte the decoder allocates, plus a fixed part for the
    // decoder object itself, which is not allocated from `mr`.
    for (const auto& [w, h] : {std::pair{32, 32}, std::pair{1, 1}, std::pair{17, 5},
                              std::pair{64, 64}}) {
        counting_resource mr;
        {
            const j2k::tier1_block_decoder dec{w, h, 12, band::hh, &mr};
            const std::size_t est = dec.resident_bytes();
            EXPECT_GE(est, mr.live) << w << "x" << h;
            EXPECT_LE(est - mr.live, 256u) << w << "x" << h;
            // Four flag words per stripe column, padding columns included,
            // plus one magnitude per sample.
            EXPECT_EQ(mr.live, static_cast<std::size_t>(4 * (w + 2) * ((h + 3) / 4)) * 2 +
                                   static_cast<std::size_t>(w * h) * 4)
                << w << "x" << h;
        }
        EXPECT_EQ(mr.live, 0u);
    }
}

}  // namespace
