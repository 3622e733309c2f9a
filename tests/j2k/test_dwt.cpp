// DWT: perfect reconstruction, energy compaction, layout geometry.
#include <j2k/dwt.hpp>

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace {

using j2k::plane;

plane random_plane(int w, int h, std::uint32_t seed, int range = 255)
{
    plane p{w, h};
    std::mt19937 rng{seed};
    for (auto& v : p.samples()) v = static_cast<std::int32_t>(rng() % static_cast<std::uint32_t>(range + 1)) - range / 2;
    return p;
}

// ---- 5/3 ----

struct Geometry {
    int w;
    int h;
    int levels;
};

class Dwt53Reconstruction : public testing::TestWithParam<Geometry> {};

TEST_P(Dwt53Reconstruction, IsExactForRandomData)
{
    const auto [w, h, levels] = GetParam();
    const plane orig = random_plane(w, h, static_cast<std::uint32_t>(w * 1000 + h));
    plane p = orig;
    j2k::dwt53_forward(p, levels);
    j2k::dwt53_inverse(p, levels);
    EXPECT_EQ(p, orig) << w << "x" << h << " L" << levels;
}

INSTANTIATE_TEST_SUITE_P(Geometries, Dwt53Reconstruction,
                         testing::Values(Geometry{8, 8, 1}, Geometry{8, 8, 3},
                                         Geometry{64, 64, 5}, Geometry{17, 9, 2},
                                         Geometry{1, 16, 2}, Geometry{16, 1, 2},
                                         Geometry{2, 2, 1}, Geometry{3, 3, 1},
                                         Geometry{5, 7, 3}, Geometry{128, 96, 4},
                                         Geometry{33, 65, 6}, Geometry{1, 1, 3}));

// Degenerate extents: single-row/column tiles hit the 1-D kernels with
// n == 1 (pure passthrough) and n == 2 (every neighbour access mirrors).
INSTANTIATE_TEST_SUITE_P(DegenerateExtents, Dwt53Reconstruction,
                         testing::Values(Geometry{2, 1, 1}, Geometry{1, 2, 1},
                                         Geometry{2, 1, 3}, Geometry{1, 2, 3},
                                         Geometry{2, 16, 2}, Geometry{16, 2, 2},
                                         Geometry{2, 2, 4}));

TEST(Dwt53OneD, RoundTripsDegenerateExtents)
{
    std::mt19937 rng{7};
    for (int n = 1; n <= 8; ++n) {
        std::vector<std::int32_t> orig(static_cast<std::size_t>(n));
        for (auto& v : orig) v = static_cast<std::int32_t>(rng() % 256) - 128;
        std::vector<std::int32_t> x = orig;
        j2k::dwt53_analyze_1d(x.data(), n);
        j2k::dwt53_synthesize_1d(x.data(), n);
        EXPECT_EQ(x, orig) << "n=" << n;
    }
}

TEST(Dwt53OneD, TwoSampleConstantSignalHasZeroHighBand)
{
    // n == 2: the predict step mirrors both neighbours onto the low sample,
    // so a constant signal must produce a zero detail coefficient.
    std::vector<std::int32_t> x{42, 42};
    j2k::dwt53_analyze_1d(x.data(), 2);
    EXPECT_EQ(x[1], 0);
    j2k::dwt53_synthesize_1d(x.data(), 2);
    EXPECT_EQ(x, (std::vector<std::int32_t>{42, 42}));
}

TEST(Dwt53OneD, SingleSampleIsPassthrough)
{
    std::vector<std::int32_t> x{-37};
    j2k::dwt53_analyze_1d(x.data(), 1);
    EXPECT_EQ(x[0], -37);
    j2k::dwt53_synthesize_1d(x.data(), 1);
    EXPECT_EQ(x[0], -37);
}

TEST(Dwt53, ConstantSignalHasZeroHighBands)
{
    plane p{16, 16};
    for (auto& v : p.samples()) v = 100;
    j2k::dwt53_forward(p, 2);
    for (const auto& br : j2k::subband_layout(16, 16, 2)) {
        if (br.b == j2k::band::ll) continue;
        for (int y = 0; y < br.height; ++y)
            for (int x = 0; x < br.width; ++x)
                EXPECT_EQ(p.at(br.x0 + x, br.y0 + y), 0)
                    << j2k::band_name(br.b) << " L" << br.level;
    }
}

TEST(Dwt53, SmoothSignalCompactsEnergyIntoLL)
{
    plane p{64, 64};
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            p.at(x, y) = static_cast<std::int32_t>(
                100.0 * std::sin(x * 0.1) * std::cos(y * 0.08) + 2 * x + y);
    j2k::dwt53_forward(p, 3);
    // The 5/3 integer transform has unit DC gain, so compaction is judged in
    // the coefficient domain: the LL quadrant (1/64 of the coefficients) must
    // carry the bulk of the coefficient energy for a smooth signal.
    const double total = std::accumulate(
        p.samples().begin(), p.samples().end(), 0.0,
        [](double a, std::int32_t v) { return a + static_cast<double>(v) * v; });
    double ll = 0;
    const auto layout = j2k::subband_layout(64, 64, 3);
    const auto& llr = layout.front();
    ASSERT_EQ(llr.b, j2k::band::ll);
    for (int y = 0; y < llr.height; ++y)
        for (int x = 0; x < llr.width; ++x) {
            const double v = p.at(llr.x0 + x, llr.y0 + y);
            ll += v * v;
        }
    EXPECT_GT(ll, 0.8 * total);  // most coefficient energy in 1/64 of samples
}

// ---- 9/7 ----

class Dwt97Reconstruction : public testing::TestWithParam<Geometry> {};

TEST_P(Dwt97Reconstruction, ReconstructsWithinTolerance)
{
    const auto [w, h, levels] = GetParam();
    std::mt19937 rng{static_cast<std::uint32_t>(w * 31 + h)};
    std::vector<double> orig(static_cast<std::size_t>(w) * h);
    for (auto& v : orig) v = static_cast<double>(rng() % 256) - 128.0;
    std::vector<double> buf = orig;
    j2k::dwt97_forward(buf, w, h, levels);
    j2k::dwt97_inverse(buf, w, h, levels);
    for (std::size_t i = 0; i < orig.size(); ++i)
        ASSERT_NEAR(buf[i], orig[i], 1e-9) << "sample " << i;
}

INSTANTIATE_TEST_SUITE_P(Geometries, Dwt97Reconstruction,
                         testing::Values(Geometry{8, 8, 1}, Geometry{64, 64, 5},
                                         Geometry{17, 9, 2}, Geometry{1, 16, 2},
                                         Geometry{5, 7, 3}, Geometry{128, 96, 4},
                                         Geometry{2, 2, 1}, Geometry{3, 3, 2}));

INSTANTIATE_TEST_SUITE_P(DegenerateExtents, Dwt97Reconstruction,
                         testing::Values(Geometry{2, 1, 1}, Geometry{1, 2, 1},
                                         Geometry{2, 1, 3}, Geometry{1, 2, 3},
                                         Geometry{2, 16, 2}, Geometry{16, 2, 2},
                                         Geometry{1, 1, 2}, Geometry{2, 2, 4}));

TEST(Dwt97OneD, RoundTripsDegenerateExtents)
{
    std::mt19937 rng{11};
    for (int n = 1; n <= 8; ++n) {
        std::vector<double> orig(static_cast<std::size_t>(n));
        for (auto& v : orig) v = static_cast<double>(rng() % 256) - 128.0;
        std::vector<double> x = orig;
        j2k::dwt97_analyze_1d(x.data(), n);
        j2k::dwt97_synthesize_1d(x.data(), n);
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                        orig[static_cast<std::size_t>(i)], 1e-9)
                << "n=" << n << " i=" << i;
    }
}

TEST(Dwt97OneD, SingleSampleIsPassthroughWithoutScaling)
{
    // n == 1 short-circuits before the K scaling: the lone sample is pure LL
    // and must come through untouched in both directions.
    std::vector<double> x{13.5};
    j2k::dwt97_analyze_1d(x.data(), 1);
    EXPECT_DOUBLE_EQ(x[0], 13.5);
    j2k::dwt97_synthesize_1d(x.data(), 1);
    EXPECT_DOUBLE_EQ(x[0], 13.5);
}

TEST(Dwt97, ConstantSignalPreservedInLLWithUnitGain)
{
    std::vector<double> buf(32 * 32, 50.0);
    j2k::dwt97_forward(buf, 32, 32, 1);
    // LL occupies the 16×16 top-left quadrant; DC gain is 1 per dimension.
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x) ASSERT_NEAR(buf[static_cast<std::size_t>(y) * 32 + x], 50.0, 1e-6);
    // High bands vanish.
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            if (x >= 16 || y >= 16)
                ASSERT_NEAR(buf[static_cast<std::size_t>(y) * 32 + x], 0.0, 1e-6);
}

// ---- synthesis against the mirrored-index reference ----
//
// The reference is the textbook form: every level interleaves each column,
// then each row, and lifts it in 1-D with a mirrored index per neighbour
// access.  The transform under test must give the same bits for every row
// length and plane shape, including the ones the golden corpus never
// reaches.

namespace ref {

constexpr double k_alpha = -1.586134342059924;
constexpr double k_beta = -0.052980118572961;
constexpr double k_gamma = 0.882911075530934;
constexpr double k_delta = 0.443506852043971;
constexpr double k_K = 1.230174104914001;

int mirror(int i, int n)
{
    if (n == 1) return 0;
    const int period = 2 * (n - 1);
    int j = i % period;
    if (j < 0) j += period;
    return j < n ? j : period - j;
}

/// [L | H] halves → even/odd samples.
template <typename T>
void interleave(T* x, int n)
{
    const std::vector<T> s(x, x + n);
    const int nl = (n + 1) / 2;
    for (int i = 0; i < n; ++i)
        x[i] = s[static_cast<std::size_t>(i % 2 == 0 ? i / 2 : nl + i / 2)];
}

void synthesize53(std::int32_t* x, int n)
{
    if (n < 2) return;
    auto at = [x, n](int i) { return x[mirror(i, n)]; };
    for (int i = 0; i < n; i += 2) x[i] -= (at(i - 1) + at(i + 1) + 2) >> 2;
    for (int i = 1; i < n; i += 2) x[i] += (at(i - 1) + at(i + 1)) >> 1;
}

void synthesize97(double* x, int n)
{
    if (n < 2) return;
    auto at = [x, n](int i) { return x[mirror(i, n)]; };
    for (int i = 0; i < n; i += 2) x[i] *= k_K;
    for (int i = 1; i < n; i += 2) x[i] *= 1.0 / k_K;
    for (int i = 0; i < n; i += 2) x[i] -= k_delta * (at(i - 1) + at(i + 1));
    for (int i = 1; i < n; i += 2) x[i] -= k_gamma * (at(i - 1) + at(i + 1));
    for (int i = 0; i < n; i += 2) x[i] -= k_beta * (at(i - 1) + at(i + 1));
    for (int i = 1; i < n; i += 2) x[i] -= k_alpha * (at(i - 1) + at(i + 1));
}

/// Levels levels-1 … discard of the inverse over a row-major w×h buffer:
/// columns, then rows, of each level's extent.
template <typename T, typename Synth>
void inverse(T* data, int w, int h, int levels, int discard, Synth synth)
{
    for (int l = levels - 1; l >= discard; --l) {
        const int lw = j2k::reduced_extent(w, l);
        const int lh = j2k::reduced_extent(h, l);
        if (lh >= 2) {
            std::vector<T> col(static_cast<std::size_t>(lh));
            for (int x = 0; x < lw; ++x) {
                const auto at = [&](int y) -> T& {
                    return data[static_cast<std::size_t>(y) * w + x];
                };
                for (int y = 0; y < lh; ++y) col[static_cast<std::size_t>(y)] = at(y);
                interleave(col.data(), lh);
                synth(col.data(), lh);
                for (int y = 0; y < lh; ++y) at(y) = col[static_cast<std::size_t>(y)];
            }
        }
        if (lw >= 2) {
            for (int y = 0; y < lh; ++y) {
                T* row = data + static_cast<std::size_t>(y) * w;
                interleave(row, lw);
                synth(row, lw);
            }
        }
    }
}

}  // namespace ref

std::vector<double> random_doubles(std::size_t n, std::uint32_t seed)
{
    std::mt19937 rng{seed};
    std::uniform_real_distribution<double> u{-1000.0, 1000.0};
    std::vector<double> v(n);
    for (auto& x : v) x = u(rng);
    return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DwtRowSynthesis, MatchesMirroredLiftingForEveryRowLength)
{
    // Each row length both ways in: interleaved through the 1-D entry
    // points, and as the [L | H] halves the 2-D transform hands its row pass
    // (an n×1 plane, one level).
    for (int n = 2; n <= 67; ++n) {
        for (std::uint32_t seed = 0; seed < 4; ++seed) {
            const auto row_seed = static_cast<std::uint32_t>(n * 10) + seed;
            const plane halves = random_plane(n, 1, row_seed, 4095);
            std::vector<std::int32_t> want = halves.samples();
            ref::interleave(want.data(), n);
            ref::synthesize53(want.data(), n);

            plane p = halves;
            j2k::dwt53_inverse(p, 1);
            ASSERT_EQ(p.samples(), want) << "5/3 halves, n=" << n;

            std::vector<std::int32_t> x = halves.samples();
            ref::interleave(x.data(), n);
            std::vector<std::int32_t> y = x;
            ref::synthesize53(y.data(), n);
            j2k::dwt53_synthesize_1d(x.data(), n);
            ASSERT_EQ(x, y) << "5/3 interleaved, n=" << n;

            const std::vector<double> dhalves =
                random_doubles(static_cast<std::size_t>(n), row_seed);
            std::vector<double> dwant = dhalves;
            ref::interleave(dwant.data(), n);
            ref::synthesize97(dwant.data(), n);

            std::vector<double> buf = dhalves;
            j2k::dwt97_inverse(buf, n, 1, 1);
            ASSERT_TRUE(same_bits(buf, dwant)) << "9/7 halves, n=" << n;

            std::vector<double> dx = dhalves;
            ref::interleave(dx.data(), n);
            std::vector<double> dy = dx;
            ref::synthesize97(dy.data(), n);
            j2k::dwt97_synthesize_1d(dx.data(), n);
            ASSERT_TRUE(same_bits(dx, dy)) << "9/7 interleaved, n=" << n;
        }
    }
}

class DwtPlaneSynthesis : public testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DwtPlaneSynthesis, FullAndPartialInversesMatchMirroredLifting)
{
    const auto [w, h] = GetParam();
    const auto n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    const auto seed = static_cast<std::uint32_t>(w * 7919 + h);
    for (int levels = 0; levels <= 5; ++levels) {
        const auto level_seed = seed + static_cast<std::uint32_t>(levels);
        for (int discard = 0; discard <= levels; ++discard) {
            const plane coeffs = random_plane(w, h, level_seed, 4095);
            std::vector<std::int32_t> want = coeffs.samples();
            ref::inverse(want.data(), w, h, levels, discard, ref::synthesize53);
            plane p = coeffs;
            if (discard == 0)
                j2k::dwt53_inverse(p, levels);
            else
                j2k::dwt53_inverse_partial(p, levels, discard);
            ASSERT_EQ(p.samples(), want) << "5/3 " << w << "x" << h << " L" << levels
                                         << " discard " << discard;

            const std::vector<double> dcoeffs = random_doubles(n, level_seed);
            std::vector<double> dwant = dcoeffs;
            ref::inverse(dwant.data(), w, h, levels, discard, ref::synthesize97);
            std::vector<double> buf = dcoeffs;
            if (discard == 0)
                j2k::dwt97_inverse(buf, w, h, levels);
            else
                j2k::dwt97_inverse_partial(buf, w, h, levels, discard);
            ASSERT_TRUE(same_bits(buf, dwant))
                << "9/7 " << w << "x" << h << " L" << levels << " discard " << discard;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DwtPlaneSynthesis,
                         testing::Values(std::pair{1, 37}, std::pair{37, 1},
                                         std::pair{2, 2}, std::pair{3, 5},
                                         std::pair{33, 65}, std::pair{64, 64}),
                         [](const testing::TestParamInfo<std::pair<int, int>>& info) {
                             return std::to_string(info.param.first) + "x" +
                                    std::to_string(info.param.second);
                         });

// ---- layout ----

TEST(SubbandLayout, CoversPlaneExactlyOnce)
{
    for (auto [w, h, levels] : {Geometry{64, 64, 3}, Geometry{17, 9, 2}, Geometry{33, 65, 4}}) {
        std::vector<int> hits(static_cast<std::size_t>(w) * h, 0);
        for (const auto& br : j2k::subband_layout(w, h, levels))
            for (int y = 0; y < br.height; ++y)
                for (int x = 0; x < br.width; ++x)
                    ++hits[static_cast<std::size_t>(br.y0 + y) * w + (br.x0 + x)];
        for (int v : hits) ASSERT_EQ(v, 1);
    }
}

TEST(SubbandLayout, CountsAndOrder)
{
    const auto l = j2k::subband_layout(64, 64, 3);
    ASSERT_EQ(l.size(), 10u);  // 3L+1
    EXPECT_EQ(l[0].b, j2k::band::ll);
    EXPECT_EQ(l[0].level, 3);
    EXPECT_EQ(l[0].width, 8);
    // Deepest level first after LL.
    EXPECT_EQ(l[1].level, 3);
    EXPECT_EQ(l.back().level, 1);
    EXPECT_EQ(l.back().b, j2k::band::hh);
    EXPECT_EQ(l.back().width, 32);
}

TEST(SubbandLayout, ZeroLevelsIsSingleLL)
{
    const auto l = j2k::subband_layout(10, 10, 0);
    ASSERT_EQ(l.size(), 1u);
    EXPECT_EQ(l[0].width, 10);
    EXPECT_EQ(l[0].height, 10);
}

TEST(SubbandLayout, RejectsBadGeometry)
{
    EXPECT_THROW(j2k::subband_layout(0, 4, 1), std::invalid_argument);
    EXPECT_THROW(j2k::subband_layout(4, 4, -1), std::invalid_argument);
}

TEST(BandGain, HigherBandsHaveHigherGain)
{
    using j2k::band;
    using j2k::wavelet;
    EXPECT_GT(j2k::band_gain(band::hh, 1, wavelet::w9_7),
              j2k::band_gain(band::hl, 1, wavelet::w9_7));
    EXPECT_GT(j2k::band_gain(band::hl, 1, wavelet::w9_7),
              j2k::band_gain(band::ll, 1, wavelet::w9_7));
    EXPECT_EQ(j2k::band_gain(band::hh, 1, wavelet::w5_3), 1.0);
}

}  // namespace
