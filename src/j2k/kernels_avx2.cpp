// AVX2 kernel table.  This is the only TU compiled with -mavx2 (plus
// -ffp-contract=off, same as the scalar TU): the rest of the codec stays at
// the baseline ISA and reaches these kernels only through the dispatch table,
// after the runtime CPUID check below has confirmed the host can execute
// them.
//
// Bit-exactness contract with kernels.cpp:
//   * integer kernels — identical add/shift dataflow, trivially exact;
//   * double kernels — the same per-element multiply/add sequence with no
//     contraction (explicit mul/add intrinsics; the scalar TU disables FMA
//     contraction), so IEEE 754 gives identical results lane for lane;
//   * rounding — floor(|x| + 0.5) with the sign restored, matching
//     kernel_round_away() exactly (vector floor and abs are exact).
// Loop tails run the same scalar expressions as the reference kernels.

#include "kernels.hpp"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <cmath>

namespace j2k {
namespace {

void x_lift53_sub_avg(std::int32_t* d, const std::int32_t* a,
                      const std::int32_t* b, int n)
{
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
        const __m256i s = _mm256_srai_epi32(_mm256_add_epi32(va, vb), 1);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                            _mm256_sub_epi32(vd, s));
    }
    for (; i < n; ++i) d[i] -= (a[i] + b[i]) >> 1;
}

void x_lift53_add_avg(std::int32_t* d, const std::int32_t* a,
                      const std::int32_t* b, int n)
{
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
        const __m256i s = _mm256_srai_epi32(_mm256_add_epi32(va, vb), 1);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                            _mm256_add_epi32(vd, s));
    }
    for (; i < n; ++i) d[i] += (a[i] + b[i]) >> 1;
}

void x_lift53_add_round(std::int32_t* d, const std::int32_t* a,
                        const std::int32_t* b, int n)
{
    const __m256i two = _mm256_set1_epi32(2);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
        const __m256i s = _mm256_srai_epi32(
            _mm256_add_epi32(_mm256_add_epi32(va, vb), two), 2);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                            _mm256_add_epi32(vd, s));
    }
    for (; i < n; ++i) d[i] += (a[i] + b[i] + 2) >> 2;
}

void x_lift53_sub_round(std::int32_t* d, const std::int32_t* a,
                        const std::int32_t* b, int n)
{
    const __m256i two = _mm256_set1_epi32(2);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
        const __m256i s = _mm256_srai_epi32(
            _mm256_add_epi32(_mm256_add_epi32(va, vb), two), 2);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                            _mm256_sub_epi32(vd, s));
    }
    for (; i < n; ++i) d[i] -= (a[i] + b[i] + 2) >> 2;
}

void x_lift97(double* d, const double* a, const double* b, double k, int n)
{
    const __m256d vk = _mm256_set1_pd(k);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_loadu_pd(a + i);
        const __m256d vb = _mm256_loadu_pd(b + i);
        const __m256d vd = _mm256_loadu_pd(d + i);
        // mul then add — never fmadd — to match the uncontracted scalar side.
        const __m256d s = _mm256_mul_pd(vk, _mm256_add_pd(va, vb));
        _mm256_storeu_pd(d + i, _mm256_add_pd(vd, s));
    }
    for (; i < n; ++i) d[i] += k * (a[i] + b[i]);
}

void x_scale97(double* d, double k, int n)
{
    const __m256d vk = _mm256_set1_pd(k);
    int i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), vk));
    for (; i < n; ++i) d[i] *= k;
}

/// Vector kernel_round_away: floor(|x| + 0.5) with the sign bit restored,
/// then truncate (exact — the value is integral) to int32.
[[nodiscard]] __m128i round_away_pd(__m256d x)
{
    const __m256d sign_mask = _mm256_set1_pd(-0.0);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d mag = _mm256_andnot_pd(sign_mask, x);
    const __m256d r = _mm256_floor_pd(_mm256_add_pd(mag, half));
    const __m256d signed_r = _mm256_or_pd(r, _mm256_and_pd(x, sign_mask));
    return _mm256_cvttpd_epi32(signed_r);
}

void x_ict_inverse(std::int32_t* y, std::int32_t* cb, std::int32_t* cr,
                   std::size_t n)
{
    const __m256d c1402 = _mm256_set1_pd(1.402);
    const __m256d c0344 = _mm256_set1_pd(0.344136);
    const __m256d c0714 = _mm256_set1_pd(0.714136);
    const __m256d c1772 = _mm256_set1_pd(1.772);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vy = _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + i)));
        const __m256d vcb = _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cb + i)));
        const __m256d vcr = _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cr + i)));
        // Same association as the scalar kernel: (Y - a*Cb) - b*Cr.
        const __m256d r = _mm256_add_pd(vy, _mm256_mul_pd(c1402, vcr));
        const __m256d g = _mm256_sub_pd(
            _mm256_sub_pd(vy, _mm256_mul_pd(c0344, vcb)),
            _mm256_mul_pd(c0714, vcr));
        const __m256d b = _mm256_add_pd(vy, _mm256_mul_pd(c1772, vcb));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(y + i), round_away_pd(r));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(cb + i), round_away_pd(g));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(cr + i), round_away_pd(b));
    }
    for (; i < n; ++i) {
        const double Y = y[i], Cb = cb[i], Cr = cr[i];
        const double R = Y + 1.402 * Cr;
        const double G = Y - 0.344136 * Cb - 0.714136 * Cr;
        const double B = Y + 1.772 * Cb;
        y[i] = kernel_round_away(R);
        cb[i] = kernel_round_away(G);
        cr[i] = kernel_round_away(B);
    }
}

void x_rct_inverse(std::int32_t* y, std::int32_t* u, std::int32_t* v,
                   std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
        const __m256i vu = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + i));
        const __m256i vv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
        const __m256i g = _mm256_sub_epi32(
            vy, _mm256_srai_epi32(_mm256_add_epi32(vu, vv), 2));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                            _mm256_add_epi32(vv, g));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(u + i), g);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i),
                            _mm256_add_epi32(vu, g));
    }
    for (; i < n; ++i) {
        const std::int32_t Y = y[i], U = u[i], V = v[i];
        const std::int32_t G = Y - ((U + V) >> 2);
        y[i] = V + G;
        u[i] = G;
        v[i] = U + G;
    }
}

void x_dequant(const std::int32_t* q, double* out, double step, std::size_t n)
{
    const __m256d sign_mask = _mm256_set1_pd(-0.0);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d vstep = _mm256_set1_pd(step);
    const __m256d zero = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d qd = _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i)));
        const __m256d mag = _mm256_andnot_pd(sign_mask, qd);
        __m256d m = _mm256_mul_pd(_mm256_add_pd(mag, half), vstep);
        m = _mm256_or_pd(m, _mm256_and_pd(qd, sign_mask));  // restore sign
        const __m256d is_zero = _mm256_cmp_pd(qd, zero, _CMP_EQ_OQ);
        _mm256_storeu_pd(out + i, _mm256_andnot_pd(is_zero, m));
    }
    for (; i < n; ++i) {
        const std::int32_t v = q[i];
        if (v == 0) {
            out[i] = 0.0;
            continue;
        }
        const double m = (std::abs(static_cast<double>(v)) + 0.5) * step;
        out[i] = v < 0 ? -m : m;
    }
}

constexpr kernel_table k_avx2_table{
    kernel_isa::avx2,
    x_lift53_sub_avg,
    x_lift53_add_avg,
    x_lift53_add_round,
    x_lift53_sub_round,
    x_lift97,
    x_scale97,
    x_ict_inverse,
    x_rct_inverse,
    x_dequant,
};

}  // namespace

const kernel_table* detail::avx2_kernels() noexcept
{
    return __builtin_cpu_supports("avx2") ? &k_avx2_table : nullptr;
}

}  // namespace j2k

#else  // baseline build without AVX2 codegen support

namespace j2k {

const kernel_table* detail::avx2_kernels() noexcept
{
    return nullptr;
}

}  // namespace j2k

#endif
