// The row kernels against the reference loops of kernel_oracle.hpp, bit for
// bit (memcmp for doubles, so a zero's sign counts too).  Every length from 0
// to 67 and four start offsets reach every remainder and alignment peel at
// 16-, 32- and 64-byte vector widths; the samples past n must stay untouched.
// The lifts also run with a == b, as the clamped end rows pass them.
#include "kernel_oracle.hpp"

#include <j2k/kernels.hpp>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <vector>

namespace {

namespace kernel = j2k::kernel;
namespace oracle = kernel_oracle;

constexpr int k_max_len = 67;
constexpr int k_offsets = 4;
constexpr int k_guard = 5;  ///< samples past n that no kernel may write

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

std::vector<std::int32_t> ints(std::mt19937& rng, std::size_t n, std::int32_t lo,
                               std::int32_t hi)
{
    std::uniform_int_distribution<std::int32_t> d{lo, hi};
    std::vector<std::int32_t> v(n);
    for (auto& x : v) x = d(rng);
    return v;
}

/// Doubles of mixed magnitude and sign, with signed zeros and subnormals.
std::vector<double> doubles(std::mt19937& rng, std::size_t n)
{
    constexpr double k_special[] = {0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.5, -0.5};
    std::uniform_real_distribution<double> d{-4096.0, 4096.0};
    std::vector<double> v(n);
    for (auto& x : v)
        x = rng() % 8 == 0 ? k_special[rng() % std::size(k_special)] : d(rng);
    return v;
}

using lift53_fn = void (*)(std::int32_t*, const std::int32_t*, const std::int32_t*, int);

TEST(KernelOracle, Lift53MatchesReferenceAtEveryLengthAndOffset)
{
    const struct {
        const char* name;
        lift53_fn fast, ref;
    } lifts[] = {
        {"sub_avg", kernel::lift53_sub_avg, oracle::s_lift53_sub_avg},
        {"add_avg", kernel::lift53_add_avg, oracle::s_lift53_add_avg},
        {"add_round", kernel::lift53_add_round, oracle::s_lift53_add_round},
        {"sub_round", kernel::lift53_sub_round, oracle::s_lift53_sub_round},
    };
    std::mt19937 rng{0x53u};
    constexpr std::int32_t k_bound = 1 << 29;  // a + b + 2 stays in range
    for (const auto& l : lifts) {
        for (int off = 0; off < k_offsets; ++off) {
            for (int n = 0; n <= k_max_len; ++n) {
                const auto size = static_cast<std::size_t>(off + n + k_guard);
                const auto a = ints(rng, size, -k_bound, k_bound);
                const auto b = ints(rng, size, -k_bound, k_bound);
                const auto d = ints(rng, size, -k_bound, k_bound);
                for (const bool aliased : {false, true}) {
                    const std::int32_t* bb = (aliased ? a : b).data() + off;
                    auto got = d;
                    auto want = d;
                    l.fast(got.data() + off, a.data() + off, bb, n);
                    l.ref(want.data() + off, a.data() + off, bb, n);
                    ASSERT_EQ(got, want) << l.name << " n=" << n << " off=" << off
                                         << " aliased=" << aliased;
                }
            }
        }
    }
}

TEST(KernelOracle, Lift97AndScale97MatchReferenceBitForBit)
{
    // The 9/7 constants as analysis (+) and synthesis (−) pass them, and the
    // two scalings.
    constexpr double k_steps[] = {-1.586134342059924, -0.052980118572961,
                                  0.882911075530934,  0.443506852043971,
                                  1.586134342059924,  -0.443506852043971};
    constexpr double k_scales[] = {1.230174104914001, 1.0 / 1.230174104914001, -0.75};
    std::mt19937 rng{0x97u};
    for (int off = 0; off < k_offsets; ++off) {
        for (int n = 0; n <= k_max_len; ++n) {
            const auto size = static_cast<std::size_t>(off + n + k_guard);
            const auto a = doubles(rng, size);
            const auto b = doubles(rng, size);
            const auto d = doubles(rng, size);
            for (const double k : k_steps) {
                for (const bool aliased : {false, true}) {
                    const double* bb = (aliased ? a : b).data() + off;
                    auto got = d;
                    auto want = d;
                    kernel::lift97(got.data() + off, a.data() + off, bb, k, n);
                    oracle::s_lift97(want.data() + off, a.data() + off, bb, k, n);
                    ASSERT_TRUE(same_bits(got, want))
                        << "lift97 k=" << k << " n=" << n << " off=" << off
                        << " aliased=" << aliased;
                }
            }
            for (const double k : k_scales) {
                auto got = d;
                auto want = d;
                kernel::scale97(got.data() + off, k, n);
                oracle::s_scale97(want.data() + off, k, n);
                ASSERT_TRUE(same_bits(got, want)) << "scale97 k=" << k << " n=" << n
                                                  << " off=" << off;
            }
        }
    }
}

using planes_fn = void (*)(std::int32_t*, std::int32_t*, std::int32_t*, std::size_t);
using plane_draw = std::function<std::vector<std::int32_t>(std::size_t size, int plane)>;

/// Runs a three-plane colour kernel and its reference over the same planes.
void expect_planes_agree(planes_fn fast, planes_fn ref, const plane_draw& draw,
                         const char* name)
{
    for (int off = 0; off < k_offsets; ++off) {
        for (int n = 0; n <= k_max_len; ++n) {
            const auto size = static_cast<std::size_t>(off + n + k_guard);
            std::vector<std::int32_t> got[3], want[3];
            for (int c = 0; c < 3; ++c) got[c] = want[c] = draw(size, c);
            const auto len = static_cast<std::size_t>(n);
            fast(got[0].data() + off, got[1].data() + off, got[2].data() + off, len);
            ref(want[0].data() + off, want[1].data() + off, want[2].data() + off, len);
            for (int c = 0; c < 3; ++c)
                ASSERT_EQ(got[c], want[c]) << name << " plane " << c << " n=" << n
                                           << " off=" << off;
        }
    }
}

TEST(KernelOracle, IctInverseMatchesReferenceIncludingNearTies)
{
    // 1.402 * 1250k and 1.772 * 125k (k odd) land within an ulp of a half,
    // so R and B reach the rounding's tie handling in the vector lanes.
    std::mt19937 rng{0x1C7u};
    expect_planes_agree(
        kernel::ict_inverse, oracle::s_ict_inverse,
        [&rng](std::size_t n, int c) {
            auto v = ints(rng, n, -(1 << 20), 1 << 20);
            const std::int32_t tie_step = c == 1 ? 125 : 1250;
            for (std::size_t i = 0; c > 0 && i < n; i += 2)
                v[i] = tie_step * (2 * static_cast<std::int32_t>(rng() % 64) - 63);
            return v;
        },
        "ict");
}

TEST(KernelOracle, RctInverseMatchesReference)
{
    std::mt19937 rng{0x2C7u};
    expect_planes_agree(
        kernel::rct_inverse, oracle::s_rct_inverse,
        [&rng](std::size_t n, int) { return ints(rng, n, -(1 << 28), 1 << 28); }, "rct");
}

TEST(KernelOracle, DequantMatchesReferenceIncludingZerosAndExtremes)
{
    constexpr std::int32_t k_special[] = {0, 1, -1,
                                          std::numeric_limits<std::int32_t>::max(),
                                          std::numeric_limits<std::int32_t>::min() + 1};
    constexpr double k_steps[] = {1.0, 0.5, 1.0 / 3.0, 3.7e-5, 1024.0, 7.8125e-3};
    std::mt19937 rng{0xDEu};
    for (int off = 0; off < k_offsets; ++off) {
        for (int n = 0; n <= k_max_len; ++n) {
            const auto size = static_cast<std::size_t>(off + n + k_guard);
            auto q = ints(rng, size, -(1 << 20), 1 << 20);
            for (auto& v : q)
                if (rng() % 3 == 0) v = k_special[rng() % std::size(k_special)];
            const std::vector<double> before = doubles(rng, size);
            for (const double step : k_steps) {
                auto got = before;
                auto want = before;
                const auto len = static_cast<std::size_t>(n);
                kernel::dequant(q.data() + off, got.data() + off, step, len);
                oracle::s_dequant(q.data() + off, want.data() + off, step, len);
                ASSERT_TRUE(same_bits(got, want)) << "step=" << step << " n=" << n
                                                  << " off=" << off;
            }
        }
    }
}

TEST(KernelOracle, RoundToIntMatchesLroundAndSaturates)
{
    constexpr double k_max = 2147483647.0;
    std::vector<double> values = {0.5, -0.5, std::nextafter(0.5, 0.0),
                                  -std::nextafter(0.5, 0.0), 0.0, -0.0,
                                  k_max - 0.5, k_max + 0.5, -k_max - 0.5, -k_max + 0.5,
                                  k_max, -k_max, -k_max - 1.0,
                                  // Outside int32: saturated.
                                  k_max + 1.0, -k_max - 2.0, 1e300, -1e300,
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()};
    for (int k = 0; k <= 1024; ++k) {
        values.push_back(k + 0.5);
        values.push_back(-(k + 0.5));
        values.push_back(std::nextafter(k + 0.5, 0.0));
        values.push_back(-std::nextafter(k + 0.5, 0.0));
    }
    std::mt19937 rng{0x1A0Du};
    std::uniform_real_distribution<double> d{-2.2e9, 2.2e9};
    for (int i = 0; i < 4096; ++i) values.push_back(d(rng));
    const std::vector<double> small = doubles(rng, 4096);
    values.insert(values.end(), small.begin(), small.end());

    std::vector<std::int32_t> got(values.size());
    std::vector<std::int32_t> want(values.size());
    kernel::round_to_int(values.data(), got.data(), values.size());
    oracle::s_round_to_int(values.data(), want.data(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << values[i];

    // Every length and offset, with the samples past n untouched.
    for (int off = 0; off < k_offsets; ++off) {
        for (int n = 0; n <= k_max_len; ++n) {
            const auto size = static_cast<std::size_t>(off + n + k_guard);
            const std::vector<double> v = doubles(rng, size);
            auto g = ints(rng, size, -9, 9);
            auto w = g;
            kernel::round_to_int(v.data() + off, g.data() + off, static_cast<std::size_t>(n));
            oracle::s_round_to_int(v.data() + off, w.data() + off, static_cast<std::size_t>(n));
            ASSERT_EQ(g, w) << "n=" << n << " off=" << off;
        }
    }

    // A NaN, which lround leaves unspecified, gets a defined result.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::int32_t out = 0;
    kernel::round_to_int(&nan, &out, 1);
    EXPECT_EQ(out, std::numeric_limits<std::int32_t>::min());
}

TEST(KernelOracle, RoundAwayMatchesFloorFormOnTiesAndZeros)
{
    std::vector<double> values = {0.0, -0.0, std::nextafter(0.5, 0.0),
                                  -std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
                                  -std::nextafter(0.5, 1.0), 2147483646.5, -2147483646.5,
                                  2147483647.0, -2147483647.0};
    for (int k = 0; k <= 1024; ++k) {
        values.push_back(k + 0.5);
        values.push_back(-(k + 0.5));
        values.push_back(std::nextafter(k + 0.5, 0.0));
        values.push_back(-std::nextafter(k + 0.5, 0.0));
    }
    std::mt19937 rng{0x0A5u};
    std::uniform_real_distribution<double> d{-2.0e9, 2.0e9};
    for (int i = 0; i < 4096; ++i) values.push_back(d(rng));
    for (const double v : values)
        ASSERT_EQ(kernel::round_away(v), oracle::kernel_round_away(v)) << v;
}

}  // namespace
