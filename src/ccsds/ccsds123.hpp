// ccsds/ccsds123.hpp — a CCSDS-123-style adaptive linear-predictor lossless
// codec for 16-bit multi-band (multispectral / hyperspectral) imagery.
//
// The satellite workload counterpart to the JPEG 2000 decoder: where j2k
// spends its work in wavelets and arithmetic coding, CCSDS-123 class codecs
// predict each sample from a causal neighbourhood — spatial neighbours in the
// current band plus the central local differences of up to P previous bands,
// combined through sign-adaptive integer weights — and entropy-code the
// mapped prediction residual with a sample-adaptive Golomb-power-of-2 coder.
// Everything is integer arithmetic over causally decoded samples, so the
// decoder reconstructs the encoder's prediction state exactly and the
// round-trip is bit-exact (lossless) for any input.
//
// This is a simplified but faithful-in-structure relative of the CCSDS 123.0
// Issue 1 predictor (full/narrow local sums, weight-resolution Ω, bounded
// residual mapping, unary-limited GPO2) — not a conformant implementation of
// the blue book.  The container is our own ("C123" magic), mirroring how the
// repo's J2K container simplifies tier-2 (DESIGN.md).
//
// Stream layout (big-endian, 20-byte header + bit-packed payload):
//
//   u32 magic       'C123'
//   u8  version     1
//   u8  mode        0 = full neighbour local sums, 1 = narrow (column only)
//   u16 bands       1..255  (codec::image components)
//   u32 width       1..k_max_dimension
//   u32 height      1..k_max_dimension
//   u8  bit_depth   2..16
//   u8  pred_bands  P, 0..15 previous bands used for prediction
//   u16 reserved    0 (nonzero rejected)
//   ... residual bitstream, band-major, raster scan per band
//
// Decode-side hardening contract (same as j2k): any malformed, truncated, or
// resource-bomb stream throws codec::codestream_error before hostile sizes
// reach an allocator; success is bit-exact or the throw — never a crash.
//
// Decoder structure: encoder and decoder share one prediction recurrence and
// differ only in the per-sample entropy step.  The decoder reads a 64-bit
// MSB-first bit window (one big-endian 8-byte load per refill), takes each
// Golomb code's unary prefix with one count-leading-zeros and its remainder
// with one shift, derives the Golomb parameter in closed form
// (detail::golomb_k), and unmaps residuals and updates weights branch-free.
#pragma once

#include <codec/backend.hpp>
#include <codec/error.hpp>
#include <codec/image.hpp>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <vector>

namespace ccsds {

/// The J2NE codec byte for CCSDS-123 streams.
inline constexpr std::uint8_t k_codec_wire_id = 1;

inline constexpr std::uint32_t k_magic = 0x43313233u;  // "C123"
inline constexpr std::uint8_t k_version = 1;
inline constexpr std::size_t k_header_size = 20;

// Decode-side resource limits: a structurally valid header can still describe
// absurd allocations.  Rejected before anything is sized from hostile values.
inline constexpr int k_max_dimension = 1 << 20;
inline constexpr std::uint64_t k_max_total_samples = std::uint64_t{1} << 26;
inline constexpr int k_max_bands = 255;       ///< codec::k_max_components
inline constexpr int k_max_pred_bands = 15;

/// Spatial local-sum neighbourhood.
enum class neighbor_mode : std::uint8_t {
    full = 0,    ///< W + NW + N + NE (wide, the default)
    narrow = 1,  ///< column-oriented: previous row only
};

/// Encoder knobs.
struct params {
    int pred_bands = 3;  ///< P: previous bands feeding the prediction (0..15)
    neighbor_mode mode = neighbor_mode::full;
};

/// Parsed header.
struct stream_info {
    int width = 0;
    int height = 0;
    int bands = 0;
    int bit_depth = 0;
    int pred_bands = 0;
    neighbor_mode mode = neighbor_mode::full;
};

/// Parse and validate the 20-byte header.  Throws codec::codestream_error.
[[nodiscard]] stream_info read_header(std::span<const std::uint8_t> cs);

/// Encode `img` (samples clamped to [0, 2^bit_depth - 1]).  Throws
/// std::invalid_argument for unencodable geometry (bit depth < 2, more than
/// k_max_bands components, dimension/sample caps).
[[nodiscard]] std::vector<std::uint8_t> encode(const codec::image& img,
                                               const params& p = {});

/// Decode a codestream.  `mr`, when non-null, backs the prediction scratch
/// (the rolling window of previous-band local differences).  Throws
/// codec::codestream_error on malformed input.
[[nodiscard]] codec::image decode(std::span<const std::uint8_t> cs,
                                  std::pmr::memory_resource* mr = nullptr);

/// Register the CCSDS-123 backend (wire id 1) with the codec registry.
/// Idempotent and thread-safe.
const codec::backend& ensure_backend_registered();

namespace detail {

/// Golomb-power-of-2 parameter from the Rice-coder counters Γ (`gamma`,
/// ≥ 1) and A (`accum`): the largest k ≤ 16 with Γ·2^k ≤ A, or 0 when
/// A < 2Γ — so k ≈ log2 of the mean mapped residual A/Γ.  Closed form: for
/// d = bit_width(A) − bit_width(Γ), Γ·2^d has A's bit width, so k is d, or
/// d − 1 when Γ·2^d > A.
[[nodiscard]] constexpr int golomb_k(std::uint32_t gamma, std::uint64_t accum) noexcept
{
    const int d = std::max(0, static_cast<int>(std::bit_width(accum)) -
                                  static_cast<int>(std::bit_width(gamma)));
    const int k = d - ((std::uint64_t{gamma} << d) > accum ? 1 : 0);
    return std::clamp(k, 0, 16);
}

}  // namespace detail

}  // namespace ccsds
