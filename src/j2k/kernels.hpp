// j2k/kernels.hpp — the elementwise row kernels of the decode hot path.
//
// The inner loops of the IDWT lifting steps, the 9/7 output rounding, the
// inverse colour transforms and dequantisation.  Each is a plain loop (the
// rounding two) with no branch in its body, so the compiler vectorises it at
// the baseline ISA: kernels.cpp is built at -O3 (GCC's -O2 cost model
// refuses loops of unknown trip count), and CI counts a "loop vectorized"
// report for each of the ten.  The j2k library is built with
// -ffp-contract=off, so every double kernel rounds after each multiply and
// each add, on any target: the same bits with or without FMA.
//
// tests/j2k/kernel_oracle.hpp keeps the reference loops these replaced;
// tests/j2k/test_kernels.cpp holds each kernel to them bit for bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace j2k::kernel {

/// Round half away from zero: truncate |v| + 0.5, then restore the sign.
/// Equal to floor(|v| + 0.5) with the sign restored for every v whose result
/// fits an int32.
[[nodiscard]] inline std::int32_t round_away(double v) noexcept
{
    const auto m = static_cast<std::int32_t>(std::fabs(v) + 0.5);
    return v < 0.0 ? -m : m;
}

// Row kernels: d[i] is a function of d[i], a[i] and b[i] alone, so callers
// mirror a boundary by choosing which rows to pass; a and b may be the same
// row.

// 5/3 integer lifting over a row of n samples.
void lift53_sub_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                    int n);  ///< d -= (a+b)>>1
void lift53_add_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                    int n);  ///< d += (a+b)>>1
void lift53_add_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n);  ///< d += (a+b+2)>>2
void lift53_sub_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n);  ///< d -= (a+b+2)>>2

// 9/7 lifting and scaling over a row of n samples.
void lift97(double* d, const double* a, const double* b, double k,
            int n);                      ///< d += k*(a+b)
void scale97(double* d, double k, int n);  ///< d *= k

/// Inverse ICT over n samples of three planes, in place, rounded by
/// round_away.
void ict_inverse(std::int32_t* y, std::int32_t* cb, std::int32_t* cr, std::size_t n);
/// Inverse RCT over n samples of three planes, in place.
void rct_inverse(std::int32_t* y, std::int32_t* u, std::int32_t* v, std::size_t n);

/// out[i] = std::lround(v[i]) — round half away from zero — saturated to
/// the int32 range (a NaN gives INT32_MIN), so no input makes the
/// conversion undefined.  The 9/7 synthesis output's conversion to samples.
void round_to_int(const double* v, std::int32_t* out, std::size_t n);

/// Midpoint-reconstruction dequantiser for a step > 0:
/// out[i] = q[i] == 0 ? 0 : sign(q[i]) * (|q[i]| + 0.5) * step.
void dequant(const std::int32_t* q, double* out, double step, std::size_t n);

}  // namespace j2k::kernel
