// Scalar reference kernels + the runtime dispatch state.
//
// This TU is compiled with -ffp-contract=off so the compiler cannot contract
// the mul/add pairs below into FMAs: the AVX2 side uses explicit mul+add
// intrinsics, and bit-exact scalar/vector equivalence requires both sides to
// round after the multiply.

#include "kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>

namespace j2k {

std::int32_t kernel_round_away(double v) noexcept
{
    // floor(|v| + 0.5) with the sign restored — the branch-free vector form
    // of round-half-away-from-zero (abs, +0.5, floor, copysign).
    const double r = v < 0.0 ? -std::floor(-v + 0.5) : std::floor(v + 0.5);
    return static_cast<std::int32_t>(r);
}

namespace {

void s_lift53_sub_avg(std::int32_t* d, const std::int32_t* a,
                      const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] -= (a[i] + b[i]) >> 1;
}

void s_lift53_add_avg(std::int32_t* d, const std::int32_t* a,
                      const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] += (a[i] + b[i]) >> 1;
}

void s_lift53_add_round(std::int32_t* d, const std::int32_t* a,
                        const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] += (a[i] + b[i] + 2) >> 2;
}

void s_lift53_sub_round(std::int32_t* d, const std::int32_t* a,
                        const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] -= (a[i] + b[i] + 2) >> 2;
}

void s_lift97(double* d, const double* a, const double* b, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] += k * (a[i] + b[i]);
}

void s_scale97(double* d, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] *= k;
}

void s_ict_inverse(std::int32_t* y, std::int32_t* cb, std::int32_t* cr,
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

void s_rct_inverse(std::int32_t* y, std::int32_t* u, std::int32_t* v,
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

void s_dequant(const std::int32_t* q, double* out, double step, std::size_t n)
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

constexpr kernel_table k_scalar_table{
    kernel_isa::scalar,
    s_lift53_sub_avg,
    s_lift53_add_avg,
    s_lift53_add_round,
    s_lift53_sub_round,
    s_lift97,
    s_scale97,
    s_ict_inverse,
    s_rct_inverse,
    s_dequant,
};

/// Automatic pick: env override first, then the best table the CPU supports.
const kernel_table* resolve_auto() noexcept
{
    if (const char* env = std::getenv("J2K_FORCE_SCALAR");
        env && env[0] != '\0' && env[0] != '0')
        return &k_scalar_table;
    if (const kernel_table* t = detail::avx2_kernels()) return t;
    return &k_scalar_table;
}

/// Active table pointer.  Starts unresolved; kernels() resolves lazily so the
/// env var and CPUID are consulted exactly once unless a test re-pins.
std::atomic<const kernel_table*> g_active{nullptr};

}  // namespace

const kernel_table& detail::scalar_kernels() noexcept
{
    return k_scalar_table;
}

const kernel_table& kernels() noexcept
{
    const kernel_table* t = g_active.load(std::memory_order_acquire);
    if (t) return *t;
    t = resolve_auto();
    // Benign race: every resolver computes the same pointer.
    g_active.store(t, std::memory_order_release);
    return *t;
}

kernel_isa active_kernel_isa() noexcept
{
    return kernels().isa;
}

bool cpu_has_avx2() noexcept
{
    return detail::avx2_kernels() != nullptr;
}

bool force_kernel_isa(kernel_isa isa) noexcept
{
    const kernel_table* t = nullptr;
    switch (isa) {
        case kernel_isa::scalar: t = &k_scalar_table; break;
        case kernel_isa::avx2: t = detail::avx2_kernels(); break;
    }
    if (!t) return false;
    g_active.store(t, std::memory_order_release);
    return true;
}

void reset_kernel_isa() noexcept
{
    g_active.store(resolve_auto(), std::memory_order_release);
}

}  // namespace j2k
