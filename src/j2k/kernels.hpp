// j2k/kernels.hpp — runtime-dispatched SIMD kernels for the decode hot path.
//
// The inner loops of the IDWT lifting steps, the inverse colour transforms,
// and dequantisation are elementwise over rows, which makes them ideal SIMD
// targets.  This table is the single dispatch point: a scalar reference
// implementation (always available, the semantic ground truth) and an AVX2
// implementation selected at startup by CPUID.  Both produce bit-identical
// results by construction — integer kernels trivially, floating-point kernels
// because both sides use the same per-element mul/add dataflow with
// contraction disabled (see kernels.cpp / kernels_avx2.cpp build flags) and a
// shared round-away-from-zero definition.
//
// Tests force either side via force_kernel_isa() and diff whole decodes
// (tests/j2k/test_kernel_differential.cpp); operators force the scalar path
// with J2K_FORCE_SCALAR=1 when bisecting a suspected kernel bug.
#pragma once

#include <cstddef>
#include <cstdint>

namespace j2k {

enum class kernel_isa : std::uint8_t {
    scalar = 0,  ///< portable reference kernels
    avx2 = 1,    ///< AVX2 256-bit kernels (x86-64 only)
};

[[nodiscard]] constexpr const char* kernel_isa_name(kernel_isa isa) noexcept
{
    return isa == kernel_isa::avx2 ? "avx2" : "scalar";
}

/// One set of hot-loop kernels.  All row kernels are elementwise: dst[i] is a
/// pure function of dst[i], a[i], b[i] — callers handle boundary mirroring by
/// choosing which rows to pass (a and b may alias each other and dst).
struct kernel_table {
    kernel_isa isa = kernel_isa::scalar;

    // 5/3 integer lifting over a row of n samples.
    void (*lift53_sub_avg)(std::int32_t* d, const std::int32_t* a,
                           const std::int32_t* b, int n);    ///< d -= (a+b)>>1
    void (*lift53_add_avg)(std::int32_t* d, const std::int32_t* a,
                           const std::int32_t* b, int n);    ///< d += (a+b)>>1
    void (*lift53_add_round)(std::int32_t* d, const std::int32_t* a,
                             const std::int32_t* b, int n);  ///< d += (a+b+2)>>2
    void (*lift53_sub_round)(std::int32_t* d, const std::int32_t* a,
                             const std::int32_t* b, int n);  ///< d -= (a+b+2)>>2

    // 9/7 double-precision lifting / scaling over a row of n samples.
    void (*lift97)(double* d, const double* a, const double* b, double k,
                   int n);                       ///< d += k*(a+b)
    void (*scale97)(double* d, double k, int n);  ///< d *= k

    // Inverse colour transforms over n interleaved-plane samples, in place.
    void (*ict_inverse)(std::int32_t* y, std::int32_t* cb, std::int32_t* cr,
                        std::size_t n);
    void (*rct_inverse)(std::int32_t* y, std::int32_t* u, std::int32_t* v,
                        std::size_t n);

    // Midpoint-reconstruction dequantiser:
    // out[i] = q[i] == 0 ? 0 : sign(q[i]) * (|q[i]| + 0.5) * step.
    void (*dequant)(const std::int32_t* q, double* out, double step,
                    std::size_t n);
};

/// The active table.  Resolution order: an explicit force_kernel_isa() wins;
/// otherwise J2K_FORCE_SCALAR=1 in the environment pins scalar; otherwise the
/// best ISA the CPU supports.
[[nodiscard]] const kernel_table& kernels() noexcept;

[[nodiscard]] kernel_isa active_kernel_isa() noexcept;
[[nodiscard]] bool cpu_has_avx2() noexcept;

/// Pin the dispatch (tests, debugging).  Returns false — and leaves the
/// dispatch unchanged — when the CPU cannot run `isa`.
bool force_kernel_isa(kernel_isa isa) noexcept;
/// Back to automatic resolution (CPUID + J2K_FORCE_SCALAR).
void reset_kernel_isa() noexcept;

/// Reference (scalar) rounding shared by every float→int kernel on both
/// sides of the dispatch: round half away from zero, expressed in the
/// floor form the vector kernels implement exactly.
[[nodiscard]] std::int32_t kernel_round_away(double v) noexcept;

namespace detail {
/// The two concrete tables (kernels.cpp / kernels_avx2.cpp).
[[nodiscard]] const kernel_table& scalar_kernels() noexcept;
/// Null when the build target or the CPU cannot run AVX2.
[[nodiscard]] const kernel_table* avx2_kernels() noexcept;
}  // namespace detail

}  // namespace j2k
