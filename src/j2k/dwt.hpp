// j2k/dwt.hpp — discrete wavelet transforms of JPEG 2000 (Annex F).
//
// Two filter banks, both implemented by lifting with whole-sample symmetric
// boundary extension:
//   * 5/3 (Le Gall) — reversible integer transform, used in lossless mode.
//   * 9/7 (Daubechies) — irreversible floating-point transform (lossy mode).
//
// The 2-D transform is separable (rows then columns) and dyadic (Mallat):
// each level re-transforms the LL band of the previous one.  Subbands are
// stored in the canonical quadrant layout (LL top-left, HL top-right, LH
// bottom-left, HH bottom-right).
//
// Synthesis runs columns then rows and reads no neighbour through a mirrored
// index.  The column pass lifts the region's low rows against its high rows
// in place, whole rows at a time through the row kernels.  The row pass
// takes the rows in interleaved order and works on each as the quadrant
// layout stores it, low half then high half: one pass per pair of lifting
// steps indexes interior neighbours directly, mirrors the two ends
// explicitly (H[-1] = H[0], H[nh] = H[nh-1], L[nl] = L[nl-1]), and the last
// pass writes the row interleaved into a grid copied back once per level.
// Analysis still lifts interleaved rows and columns with a mirrored index per
// access.  Both give the bits of lifting every column and row in 1-D with
// that index.
#pragma once

#include "image.hpp"

#include <memory_resource>
#include <vector>

namespace j2k {

enum class wavelet {
    w5_3,  ///< reversible integer 5/3 (lossless path)
    w9_7,  ///< irreversible 9/7 (lossy path)
};

enum class band { ll, hl, lh, hh };

[[nodiscard]] constexpr const char* band_name(band b) noexcept
{
    switch (b) {
        case band::ll: return "LL";
        case band::hl: return "HL";
        case band::lh: return "LH";
        case band::hh: return "HH";
    }
    return "?";
}

/// Geometry of one subband within the quadrant layout.
struct band_rect {
    band b = band::ll;
    int level = 0;  ///< decomposition level this band belongs to (1..L)
    int x0 = 0;
    int y0 = 0;
    int width = 0;
    int height = 0;
};

/// All subbands of an L-level decomposition of a w×h tile, ordered from the
/// deepest LL outwards (the order tier-2 packs them in).  3L+1 entries.
[[nodiscard]] std::vector<band_rect> subband_layout(int w, int h, int levels);

/// Per-band weight of the synthesis basis vectors (L2 gain) — used by the
/// quantiser to scale step sizes per subband.
[[nodiscard]] double band_gain(band b, int level, wavelet w) noexcept;

// -- 5/3 reversible (integer, in-place on a plane) ---------------------------
//
// All 2-D transforms take an optional memory resource for their internal
// scratch (one w×h grid and one row buffer); nullptr (the decode path's
// choice) uses the heap, and the scratch is freed when the call returns.

/// Forward L-level 5/3 transform of `p` in place.
void dwt53_forward(plane& p, int levels, std::pmr::memory_resource* mr = nullptr);
/// Inverse L-level 5/3 transform of `p` in place (exact inverse).
void dwt53_inverse(plane& p, int levels, std::pmr::memory_resource* mr = nullptr);

// -- 9/7 irreversible (double buffer, row-major w×h) --------------------------

void dwt97_forward(std::vector<double>& buf, int w, int h, int levels,
                   std::pmr::memory_resource* mr = nullptr);
void dwt97_inverse(std::vector<double>& buf, int w, int h, int levels,
                   std::pmr::memory_resource* mr = nullptr);

// -- resolution scalability ---------------------------------------------------

/// Inverse transform stopping `discard` levels early: only levels
/// L-1 … discard are synthesised, leaving a 1/2^discard-resolution image in
/// the top-left extent(w,discard) × extent(h,discard) region.  discard = 0 is
/// the full inverse.
void dwt53_inverse_partial(plane& p, int levels, int discard,
                           std::pmr::memory_resource* mr = nullptr);
void dwt97_inverse_partial(std::vector<double>& buf, int w, int h, int levels,
                           int discard, std::pmr::memory_resource* mr = nullptr);

/// ceil(extent / 2^level) — the size of the reduced-resolution image.
[[nodiscard]] int reduced_extent(int full, int level) noexcept;

// -- 1-D primitives (exposed for tests and for the FOSSY RTL models) ----------

/// One 5/3 analysis pass over `n` interleaved samples with stride 1.
void dwt53_analyze_1d(std::int32_t* x, int n);
/// Inverse of dwt53_analyze_1d: deinterleaves `x` and runs the 2-D
/// transform's row synthesis on it.
void dwt53_synthesize_1d(std::int32_t* x, int n);
void dwt97_analyze_1d(double* x, int n);
void dwt97_synthesize_1d(double* x, int n);

}  // namespace j2k
