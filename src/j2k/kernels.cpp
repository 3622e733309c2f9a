// The row kernels.  Each loop body is branch-free (selects, fabs and
// copysign) so that GCC vectorises it; see kernels.hpp for the build flags
// that keep them vectorised and their doubles rounded the same on every
// target.

#include "kernels.hpp"

#include <algorithm>

namespace j2k::kernel {

void lift53_sub_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                    int n)
{
    for (int i = 0; i < n; ++i) d[i] -= (a[i] + b[i]) >> 1;
}

void lift53_add_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                    int n)
{
    for (int i = 0; i < n; ++i) d[i] += (a[i] + b[i]) >> 1;
}

void lift53_add_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n)
{
    for (int i = 0; i < n; ++i) d[i] += (a[i] + b[i] + 2) >> 2;
}

void lift53_sub_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n)
{
    for (int i = 0; i < n; ++i) d[i] -= (a[i] + b[i] + 2) >> 2;
}

void lift97(double* d, const double* a, const double* b, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] += k * (a[i] + b[i]);
}

void scale97(double* d, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] *= k;
}

void round_to_int(const double* v, std::int32_t* out, std::size_t n)
{
    // Two loops over a chunk: GCC does not vectorise the clamp and the
    // conversions in one loop body.  The clamp's comparisons send a NaN to
    // the low bound.  c − t is exact in binary floating point, so comparing
    // it with ±0.5 rounds half away from zero exactly, which is lround
    // without the libm call.  t ± 1 cannot overflow: c truncates to INT32_MAX
    // or INT32_MIN only when it has no fraction.
    constexpr std::size_t chunk = 64;
    double c[chunk];
    for (std::size_t i0 = 0; i0 < n; i0 += chunk) {
        const std::size_t m = std::min(chunk, n - i0);
        for (std::size_t i = 0; i < m; ++i) {
            const double x = v[i0 + i];
            const double lo = x >= -2147483648.0 ? x : -2147483648.0;
            c[i] = lo <= 2147483647.0 ? lo : 2147483647.0;
        }
        for (std::size_t i = 0; i < m; ++i) {
            const auto t = static_cast<std::int32_t>(c[i]);
            const double f = c[i] - t;
            const std::int32_t up = f >= 0.5 ? t + 1 : t;
            out[i0 + i] = f <= -0.5 ? up - 1 : up;
        }
    }
}

void ict_inverse(std::int32_t* y, std::int32_t* cb, std::int32_t* cr, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double Y = y[i], Cb = cb[i], Cr = cr[i];
        const double R = Y + 1.402 * Cr;
        const double G = Y - 0.344136 * Cb - 0.714136 * Cr;
        const double B = Y + 1.772 * Cb;
        y[i] = round_away(R);
        cb[i] = round_away(G);
        cr[i] = round_away(B);
    }
}

void rct_inverse(std::int32_t* y, std::int32_t* u, std::int32_t* v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t Y = y[i], U = u[i], V = v[i];
        const std::int32_t G = Y - ((U + V) >> 2);
        y[i] = V + G;
        u[i] = G;
        v[i] = U + G;
    }
}

void dequant(const std::int32_t* q, double* out, double step, std::size_t n)
{
    // A zero adds no half and keeps its +0.0; the sign comes from q, which
    // the positive step leaves intact.
    for (std::size_t i = 0; i < n; ++i) {
        const double v = q[i];
        const double half = q[i] != 0 ? 0.5 : 0.0;
        out[i] = std::copysign((std::fabs(v) + half) * step, v);
    }
}

}  // namespace j2k::kernel
