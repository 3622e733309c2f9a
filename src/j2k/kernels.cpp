// The row kernels.  Each loop body is branch-free (selects, fabs and
// copysign) so that GCC vectorises it; see kernels.hpp for the build flags
// that keep them vectorised and their doubles rounded the same on every
// target.

#include "kernels.hpp"

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
