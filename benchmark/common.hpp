// common.hpp — clock, sample statistics and the metric record shared by the
// benchmark's translation units.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock timerfd deadlines use).
[[nodiscard]] inline std::int64_t now_ns() noexcept
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/// One reported number.
struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

}  // namespace bench
