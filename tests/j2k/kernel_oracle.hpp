// tests/j2k/kernel_oracle.hpp — the reference row kernels the vectorised ones
// are checked against.
//
// These are the scalar loops the decoder ran when a CPUID-dispatched table
// chose between them and an AVX2 copy: rounding in the floor form with a
// branch on the sign, and a dequantiser that branches around every zero.
// GCC vectorises neither of those two.  The library's kernels
// (src/j2k/kernels.cpp) must give the same bits for every input.  Test code
// only; test_j2k is built with -ffp-contract=off, as the library is, so these
// doubles round the same way too.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace kernel_oracle {

inline std::int32_t kernel_round_away(double v) noexcept
{
    // floor(|v| + 0.5) with the sign restored — the branch-free vector form
    // of round-half-away-from-zero (abs, +0.5, floor, copysign).
    const double r = v < 0.0 ? -std::floor(-v + 0.5) : std::floor(v + 0.5);
    return static_cast<std::int32_t>(r);
}

inline void s_lift53_sub_avg(std::int32_t* d, const std::int32_t* a,
                             const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] -= (a[i] + b[i]) >> 1;
}

inline void s_lift53_add_avg(std::int32_t* d, const std::int32_t* a,
                             const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] += (a[i] + b[i]) >> 1;
}

inline void s_lift53_add_round(std::int32_t* d, const std::int32_t* a,
                               const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] += (a[i] + b[i] + 2) >> 2;
}

inline void s_lift53_sub_round(std::int32_t* d, const std::int32_t* a,
                               const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] -= (a[i] + b[i] + 2) >> 2;
}

inline void s_lift97(double* d, const double* a, const double* b, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] += k * (a[i] + b[i]);
}

inline void s_scale97(double* d, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] *= k;
}

inline void s_ict_inverse(std::int32_t* y, std::int32_t* cb, std::int32_t* cr,
                          std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double Y = y[i], Cb = cb[i], Cr = cr[i];
        const double R = Y + 1.402 * Cr;
        const double G = Y - 0.344136 * Cb - 0.714136 * Cr;
        const double B = Y + 1.772 * Cb;
        y[i] = kernel_round_away(R);
        cb[i] = kernel_round_away(G);
        cr[i] = kernel_round_away(B);
    }
}

inline void s_rct_inverse(std::int32_t* y, std::int32_t* u, std::int32_t* v,
                          std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t Y = y[i], U = u[i], V = v[i];
        const std::int32_t G = Y - ((U + V) >> 2);
        y[i] = V + G;
        u[i] = G;
        v[i] = U + G;
    }
}

inline void s_dequant(const std::int32_t* q, double* out, double step, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t v = q[i];
        if (v == 0) {
            out[i] = 0.0;
            continue;
        }
        const double m = (std::abs(static_cast<double>(v)) + 0.5) * step;
        out[i] = v < 0 ? -m : m;
    }
}

}  // namespace kernel_oracle
