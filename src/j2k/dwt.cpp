#include "dwt.hpp"

#include "kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace j2k {

namespace {

// 9/7 lifting constants (ISO/IEC 15444-1 F.4.8.2).
constexpr double k_alpha = -1.586134342059924;
constexpr double k_beta = -0.052980118572961;
constexpr double k_gamma = 0.882911075530934;
constexpr double k_delta = 0.443506852043971;
constexpr double k_K = 1.230174104914001;

/// Mirror index for whole-sample symmetric extension on [0, n).
[[nodiscard]] constexpr int mirror(int i, int n) noexcept
{
    if (n == 1) return 0;
    const int period = 2 * (n - 1);
    int j = i % period;
    if (j < 0) j += period;
    return j < n ? j : period - j;
}

[[nodiscard]] int level_extent(int full, int level) noexcept
{
    // ceil(full / 2^level)
    int e = full;
    for (int i = 0; i < level; ++i) e = (e + 1) / 2;
    return e;
}

[[nodiscard]] std::pmr::memory_resource* mr_of(std::pmr::memory_resource* mr) noexcept
{
    return mr ? mr : std::pmr::get_default_resource();
}

/// Deinterleave x (even→low half, odd→high half) using scratch.
template <typename T>
void deinterleave(T* x, int n, std::pmr::vector<T>& scratch)
{
    scratch.assign(x, x + n);
    const int nl = (n + 1) / 2;
    for (int i = 0; i < n; ++i) {
        if (i % 2 == 0)
            x[i / 2] = scratch[static_cast<std::size_t>(i)];
        else
            x[nl + i / 2] = scratch[static_cast<std::size_t>(i)];
    }
}

/// One low then one high lifting step over a row held as its halves,
/// low L[0, nl) and high H[0, nh), n = nl + nh >= 2:
///
///   L'[k] = lo(L[k], H[k-1], H[k])
///   H'[k] = hi(H[k], L'[k], L'[k+1])
///
/// Interior samples are indexed directly; whole-sample symmetric extension
/// is written out at the two ends: H[-1] -> H[0], H[nh] -> H[nh-1] (odd n),
/// L'[nl] -> L'[nl-1] (even n).  L'[k] goes to lo_out[k*stride] and H'[k]
/// to hi_out[k*stride].  The outputs may be L and H themselves (stride 1):
/// each sample is read before its own output is written.
template <typename T, typename Lo, typename Hi>
void lift_pair(const T* L, const T* H, int nl, int nh, T* lo_out, T* hi_out,
               std::ptrdiff_t stride, Lo lo, Hi hi)
{
    T l0 = lo(L[0], H[0], H[0]);
    lo_out[0] = l0;
    int k = 0;
    for (; k + 1 < nh; ++k) {
        const T l1 = lo(L[k + 1], H[k], H[k + 1]);
        const T h = hi(H[k], l0, l1);
        lo_out[(k + 1) * stride] = l1;
        hi_out[k * stride] = h;
        l0 = l1;
    }
    // k = nh - 1, the last high sample.
    if (nl > nh) {
        const T l1 = lo(L[nh], H[k], H[k]);
        const T h = hi(H[k], l0, l1);
        lo_out[nh * stride] = l1;
        hi_out[k * stride] = h;
    } else {
        hi_out[k * stride] = hi(H[k], l0, l0);
    }
}

/// 5/3 synthesis of one row: `s` holds the row's [L | H] halves, `out`
/// receives the n reconstructed samples.
void synthesize53_row(const std::int32_t* s, int n, std::int32_t* out)
{
    const int nl = (n + 1) / 2;
    lift_pair(
        s, s + nl, nl, n / 2, out, out + 1, 2,
        [](auto l, auto a, auto b) { return l - ((a + b + 2) >> 2); },
        [](auto h, auto a, auto b) { return h + ((a + b) >> 1); });
}

/// 9/7 synthesis of one row, as synthesize53_row; `s` is scaled and lifted
/// in place (δ, γ) before the last two steps write `out`.  Each step keeps
/// the reference's order and grouping, x -= k*(a + b).
void synthesize97_row(double* s, int n, double* out)
{
    const int nl = (n + 1) / 2;
    const int nh = n / 2;
    for (int k = 0; k < nl; ++k) s[k] *= k_K;
    for (int k = nl; k < n; ++k) s[k] *= 1.0 / k_K;
    const auto step = [](double c) {
        return [c](double v, double a, double b) { return v - c * (a + b); };
    };
    lift_pair(s, s + nl, nl, nh, s, s + nl, 1, step(k_delta), step(k_gamma));
    lift_pair(s, s + nl, nl, nh, out, out + 1, 2, step(k_beta), step(k_alpha));
}

}  // namespace

void dwt53_analyze_1d(std::int32_t* x, int n)
{
    if (n < 2) return;
    auto at = [x, n](int i) -> std::int32_t { return x[mirror(i, n)]; };
    // Predict: odd (high) samples.
    for (int i = 1; i < n; i += 2) x[i] -= (at(i - 1) + at(i + 1)) >> 1;
    // Update: even (low) samples.
    for (int i = 0; i < n; i += 2) x[i] += (at(i - 1) + at(i + 1) + 2) >> 2;
}

void dwt53_synthesize_1d(std::int32_t* x, int n)
{
    if (n < 2) return;
    std::pmr::vector<std::int32_t> scratch;
    deinterleave(x, n, scratch);
    scratch.assign(x, x + n);
    synthesize53_row(scratch.data(), n, x);
}

void dwt97_analyze_1d(double* x, int n)
{
    if (n < 2) {
        return;  // single sample: pure LL, no scaling
    }
    auto at = [x, n](int i) -> double { return x[mirror(i, n)]; };
    for (int i = 1; i < n; i += 2) x[i] += k_alpha * (at(i - 1) + at(i + 1));
    for (int i = 0; i < n; i += 2) x[i] += k_beta * (at(i - 1) + at(i + 1));
    for (int i = 1; i < n; i += 2) x[i] += k_gamma * (at(i - 1) + at(i + 1));
    for (int i = 0; i < n; i += 2) x[i] += k_delta * (at(i - 1) + at(i + 1));
    for (int i = 0; i < n; i += 2) x[i] *= 1.0 / k_K;  // low-pass: DC gain 1
    for (int i = 1; i < n; i += 2) x[i] *= k_K;        // high-pass
}

void dwt97_synthesize_1d(double* x, int n)
{
    if (n < 2) return;
    std::pmr::vector<double> scratch;
    deinterleave(x, n, scratch);
    scratch.assign(x, x + n);
    synthesize97_row(scratch.data(), n, x);
}

namespace {

// ---------------------------------------------------------------------------
// Vertical (column-direction) passes.  A lifting step is elementwise across
// a row, so each runs as a whole-row kernel (dispatched: scalar or AVX2)
// with the two neighbouring rows as operands: the same arithmetic as lifting
// every column in 1-D.
//
// Analysis copies the region's rows into a contiguous grid, lifts row y
// against rows mirror(y±1, h) (the mirrored row passed twice at a boundary
// reproduces the 1-D at() extension), and writes the rows back
// deinterleaved.  Synthesis lifts the region's [L rows | H rows] in place,
// the end rows clamped, and leaves them in halves order for the row pass.
// ---------------------------------------------------------------------------

void vertical53_forward(std::int32_t* data, int stride, int w, int h,
                        std::int32_t* g, const kernel_table& K)
{
    for (int y = 0; y < h; ++y)
        std::copy_n(data + static_cast<std::ptrdiff_t>(y) * stride, w,
                    g + static_cast<std::size_t>(y) * w);
    auto row = [g, w, h](int y) {
        return g + static_cast<std::size_t>(mirror(y, h)) * w;
    };
    for (int y = 1; y < h; y += 2)
        K.lift53_sub_avg(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), w);
    for (int y = 0; y < h; y += 2)
        K.lift53_add_round(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), w);
    const int nl = (h + 1) / 2;
    for (int y = 0; y < h; ++y) {
        const int dst = y % 2 == 0 ? y / 2 : nl + y / 2;
        std::copy_n(g + static_cast<std::size_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(dst) * stride);
    }
}

/// L[k] -= (H[k-1] + H[k] + 2) >> 2, then H[k] += (L[k] + L[k+1]) >> 1, on
/// rows, with H[-1] = H[0], H[nh] = H[nh-1] and L[nl] = L[nl-1].
void vertical53_inverse(std::int32_t* data, int stride, int w, int h,
                        const kernel_table& K)
{
    const int nl = (h + 1) / 2;
    const int nh = h / 2;
    const auto row = [=](int r) {
        return data + static_cast<std::ptrdiff_t>(r) * stride;
    };
    const auto L = [=](int k) { return row(k); };
    const auto H = [=](int k) { return row(nl + k); };
    for (int k = 0; k < nl; ++k)
        K.lift53_sub_round(L(k), H(std::max(k - 1, 0)), H(std::min(k, nh - 1)), w);
    for (int k = 0; k < nh; ++k)
        K.lift53_add_avg(H(k), L(k), L(std::min(k + 1, nl - 1)), w);
}

void vertical97_forward(double* data, int stride, int w, int h, double* g,
                        const kernel_table& K)
{
    for (int y = 0; y < h; ++y)
        std::copy_n(data + static_cast<std::ptrdiff_t>(y) * stride, w,
                    g + static_cast<std::size_t>(y) * w);
    auto row = [g, w, h](int y) {
        return g + static_cast<std::size_t>(mirror(y, h)) * w;
    };
    auto lift = [&](int first, double k) {
        for (int y = first; y < h; y += 2)
            K.lift97(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), k, w);
    };
    lift(1, k_alpha);
    lift(0, k_beta);
    lift(1, k_gamma);
    lift(0, k_delta);
    for (int y = 0; y < h; y += 2)
        K.scale97(g + static_cast<std::size_t>(y) * w, 1.0 / k_K, w);
    for (int y = 1; y < h; y += 2)
        K.scale97(g + static_cast<std::size_t>(y) * w, k_K, w);
    const int nl = (h + 1) / 2;
    for (int y = 0; y < h; ++y) {
        const int dst = y % 2 == 0 ? y / 2 : nl + y / 2;
        std::copy_n(g + static_cast<std::size_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(dst) * stride);
    }
}

void vertical97_inverse(double* data, int stride, int w, int h, const kernel_table& K)
{
    const int nl = (h + 1) / 2;
    const int nh = h / 2;
    const auto row = [=](int r) {
        return data + static_cast<std::ptrdiff_t>(r) * stride;
    };
    const auto L = [=](int k) { return row(k); };
    const auto H = [=](int k) { return row(nl + k); };
    for (int k = 0; k < nl; ++k) K.scale97(L(k), k_K, w);
    for (int k = 0; k < nh; ++k) K.scale97(H(k), 1.0 / k_K, w);
    // x -= k*(a+b) is x += (-k)*(a+b) bit for bit (IEEE negation is exact),
    // which lets synthesis share the single additive lift kernel.
    const auto low = [&](double c) {
        for (int k = 0; k < nl; ++k)
            K.lift97(L(k), H(std::max(k - 1, 0)), H(std::min(k, nh - 1)), -c, w);
    };
    const auto high = [&](double c) {
        for (int k = 0; k < nh; ++k)
            K.lift97(H(k), L(k), L(std::min(k + 1, nl - 1)), -c, w);
    };
    low(k_delta);
    high(k_gamma);
    low(k_beta);
    high(k_alpha);
}

// ---------------------------------------------------------------------------
// Level drivers: rows then columns (forward), columns then rows (inverse).
// `grid` is one w×h scratch reused across levels: the rows the forward
// column pass lifts, or the rows the inverse row pass writes.  `scratch` is
// one row: the deinterleave's copy, or the copy a lone row is synthesised
// from.
// ---------------------------------------------------------------------------

template <typename T, typename Fwd1D, typename Vert>
void forward_level(T* data, int stride, int w, int h, Fwd1D analyze, Vert vertical,
                   std::pmr::vector<T>& grid, std::pmr::vector<T>& scratch,
                   const kernel_table& K)
{
    if (w >= 2) {
        for (int y = 0; y < h; ++y) {
            T* row = data + static_cast<std::ptrdiff_t>(y) * stride;
            analyze(row, w);
            deinterleave(row, w, scratch);
        }
    }
    if (h >= 2) {
        if (grid.size() < static_cast<std::size_t>(w) * static_cast<std::size_t>(h))
            grid.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
        vertical(data, stride, w, h, grid.data(), K);
    }
}

template <typename T, typename Row, typename Vert>
void inverse_level(T* data, int stride, int w, int h, Row synthesize, Vert vertical,
                   std::pmr::vector<T>& grid, std::pmr::vector<T>& scratch,
                   const kernel_table& K)
{
    if (h < 2) {  // one row, synthesised in place from a copy
        scratch.assign(data, data + w);
        synthesize(scratch.data(), w, data);
        return;
    }
    vertical(data, stride, w, h, K);
    // Rows come out interleaved into the grid: row y from row y/2 (even y)
    // or nl + y/2 (odd y), each source row read, and clobbered, once.
    if (grid.size() < static_cast<std::size_t>(w) * static_cast<std::size_t>(h))
        grid.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
    const int nl = (h + 1) / 2;
    for (int y = 0; y < h; ++y) {
        const int from = y % 2 == 0 ? y / 2 : nl + y / 2;
        T* src = data + static_cast<std::ptrdiff_t>(from) * stride;
        T* dst = grid.data() + static_cast<std::size_t>(y) * w;
        if (w >= 2)
            synthesize(src, w, dst);
        else
            dst[0] = src[0];
    }
    for (int y = 0; y < h; ++y)
        std::copy_n(grid.data() + static_cast<std::size_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(y) * stride);
}

template <typename T, typename Fwd1D, typename Vert>
void forward_multi(T* data, int stride, int w, int h, int levels, Fwd1D f,
                   Vert vertical, std::pmr::memory_resource* mr)
{
    if (levels < 0) throw std::invalid_argument{"dwt: negative level count"};
    const kernel_table& K = kernels();  // one table for the whole transform
    std::pmr::vector<T> grid{mr_of(mr)};
    std::pmr::vector<T> scratch{mr_of(mr)};
    for (int l = 0; l < levels; ++l) {
        const int lw = level_extent(w, l);
        const int lh = level_extent(h, l);
        if (lw < 2 && lh < 2) break;
        forward_level(data, stride, lw, lh, f, vertical, grid, scratch, K);
    }
}

template <typename T, typename Row, typename Vert>
void inverse_multi(T* data, int stride, int w, int h, int levels, Row f,
                   Vert vertical, std::pmr::memory_resource* mr, int stop_level = 0)
{
    if (levels < 0) throw std::invalid_argument{"dwt: negative level count"};
    if (stop_level < 0 || stop_level > levels)
        throw std::invalid_argument{"dwt: bad discard level"};
    const kernel_table& K = kernels();
    std::pmr::vector<T> grid{mr_of(mr)};
    std::pmr::vector<T> scratch{mr_of(mr)};
    for (int l = levels - 1; l >= stop_level; --l) {
        const int lw = level_extent(w, l);
        const int lh = level_extent(h, l);
        if (lw < 2 && lh < 2) continue;
        inverse_level(data, stride, lw, lh, f, vertical, grid, scratch, K);
    }
}

}  // namespace

void dwt53_forward(plane& p, int levels, std::pmr::memory_resource* mr)
{
    forward_multi(p.samples().data(), p.width(), p.width(), p.height(), levels,
                  [](std::int32_t* x, int n) { dwt53_analyze_1d(x, n); },
                  vertical53_forward, mr);
}

void dwt53_inverse(plane& p, int levels, std::pmr::memory_resource* mr)
{
    dwt53_inverse_partial(p, levels, 0, mr);
}

void dwt97_forward(std::vector<double>& buf, int w, int h, int levels,
                   std::pmr::memory_resource* mr)
{
    if (static_cast<std::size_t>(w) * static_cast<std::size_t>(h) != buf.size())
        throw std::invalid_argument{"dwt97_forward: buffer size mismatch"};
    forward_multi(buf.data(), w, w, h, levels,
                  [](double* x, int n) { dwt97_analyze_1d(x, n); },
                  vertical97_forward, mr);
}

void dwt97_inverse(std::vector<double>& buf, int w, int h, int levels,
                   std::pmr::memory_resource* mr)
{
    dwt97_inverse_partial(buf, w, h, levels, 0, mr);
}

void dwt53_inverse_partial(plane& p, int levels, int discard,
                           std::pmr::memory_resource* mr)
{
    inverse_multi(p.samples().data(), p.width(), p.width(), p.height(), levels,
                  [](std::int32_t* s, int n, std::int32_t* out) {
                      synthesize53_row(s, n, out);
                  },
                  vertical53_inverse, mr, discard);
}

void dwt97_inverse_partial(std::vector<double>& buf, int w, int h, int levels,
                           int discard, std::pmr::memory_resource* mr)
{
    if (static_cast<std::size_t>(w) * static_cast<std::size_t>(h) != buf.size())
        throw std::invalid_argument{"dwt97_inverse: buffer size mismatch"};
    inverse_multi(buf.data(), w, w, h, levels,
                  [](double* s, int n, double* out) { synthesize97_row(s, n, out); },
                  vertical97_inverse, mr, discard);
}

int reduced_extent(int full, int level) noexcept
{
    return level_extent(full, level);
}

std::vector<band_rect> subband_layout(int w, int h, int levels)
{
    if (w <= 0 || h <= 0 || levels < 0)
        throw std::invalid_argument{"subband_layout: bad geometry"};
    std::vector<band_rect> out;
    // Deepest LL first.
    out.push_back({band::ll, levels, 0, 0, level_extent(w, levels), level_extent(h, levels)});
    for (int l = levels; l >= 1; --l) {
        const int pw = level_extent(w, l - 1);
        const int ph = level_extent(h, l - 1);
        const int lw = (pw + 1) / 2;  // LL/LH width at this level
        const int lh = (ph + 1) / 2;  // LL/HL height
        out.push_back({band::hl, l, lw, 0, pw - lw, lh});
        out.push_back({band::lh, l, 0, lh, lw, ph - lh});
        out.push_back({band::hh, l, lw, lh, pw - lw, ph - lh});
    }
    return out;
}

double band_gain(band b, int level, wavelet w) noexcept
{
    if (w == wavelet::w5_3) return 1.0;  // reversible path is not quantised
    // L2 gains of the 9/7 synthesis basis, approximated per level: the low
    // branch gain is ~1 per level (DC-normalised), the high branch ~2.
    double g = 1.0;
    switch (b) {
        case band::ll: g = 1.0; break;
        case band::hl:
        case band::lh: g = 2.0; break;
        case band::hh: g = 4.0; break;
    }
    // Deeper levels spread energy over wider basis functions.
    return g / std::pow(2.0, level - 1);
}

}  // namespace j2k
