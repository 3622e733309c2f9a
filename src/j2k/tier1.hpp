// j2k/tier1.hpp — EBCOT tier-1 code-block coder (ISO/IEC 15444-1 Annex D).
//
// Quantised wavelet coefficients are coded code-block by code-block, bit
// plane by bit plane, MSB first, with three passes per plane:
//
//   1. significance propagation — samples with a significant neighbour,
//   2. magnitude refinement     — samples already significant,
//   3. cleanup                  — everything else, with run-length coding of
//                                 all-zero stripe columns.
//
// All decisions go through the adaptive MQ coder with the standard 19-context
// model (9 zero-coding, 5 sign-coding, 3 magnitude-refinement, run-length,
// uniform).  One MQ codeword spans the whole code block (default mode: no
// per-pass termination, no bypass).
//
// This stage is the "arithmetic decoder" of the paper's Figure 1 — the block
// that consumes ~88.8% (lossless) / 78.6% (lossy) of software decode time;
// here ~97% / ~87% of native decode (bench_fig1_profile).  Of tier-1's own
// time the significance pass takes ~43%, refinement ~34% lossless and ~22%
// lossy, and cleanup the rest; bench_fig1_profile prints the split.
//
// Coder state is one 16-bit flag word per sample:
//
//   bits 0..3    significance of the direct neighbours N, W, E, S
//   bits 4..7    significance of the diagonals NW, NE, SW, SE
//   bits 8..11   sign (1 = negative) of the significant direct neighbours
//                N, W, E, S — each 8 bits above its significance bit
//   bit 12 SIG   the sample is significant
//   bit 13 VISIT the sample was coded by this plane's significance pass
//   bit 14 REFINED  the sample has had at least one refinement decision
//   bit 15 NEG   the sample's own sign
//
// The words are stored in stripe-column order, as OpenJPEG does: the four
// words of a stripe column sit next to each other, so one 64-bit load reads
// the column, one lane per row, and each stripe has a padding column on
// either side so edge samples need no bounds checks.  A neighbour above or
// below may sit in the next stripe; updates that would leave the block go
// to a small sink.
//
// The low byte indexes a 256-entry zero-coding context table per
// orientation; the significance and sign nibbles of the direct neighbours
// index one 256-entry sign-coding table (context + XOR bit); the refinement
// context is REFINED plus "low byte non-zero".  A sample turning significant
// ORs its bits into its eight neighbours' words.
//
// VISIT is cleared lazily: the cleanup pass clears it on every column it
// walks, so each plane starts with VISIT clear without a plane-wide reset,
// and SIG && VISIT is "became significant in this plane's significance
// pass" — the samples its refinement pass skips.  Each pass tests a stripe
// column on its 64-bit word: the significance pass skips a column with no
// significant neighbour, and the cleanup pass takes its run-length path on
// an all-clear column.  The refinement and cleanup passes turn the word into
// a 4-bit mask of the rows they code (SIG without VISIT; neither) and walk
// its set bits, with no branch per row.  The significance pass keeps a
// branch per row, because a row turning significant gives the row below it
// a neighbour.
//
// One pass engine serves encoder and decoder.  The decoder instantiates it
// with counting (decisions, samples visited, passes, and per pass kind the
// decisions and the wall time) when it is handed a tier1_stats and without
// when not, so the service's decodes count and time nothing.
//
// The decoder accumulates magnitudes row-major and unpadded.  Every decoder
// (tier1_decode, tier1_block_decoder::read) hands them out through one
// signed write: row by row, at the caller's row stride, so a block lands
// straight in its tile plane, with the sign taken from NEG without a branch.
#pragma once

#include "dwt.hpp"
#include "mq_coder.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace j2k {

/// Result of encoding one code block.
struct codeblock {
    int width = 0;
    int height = 0;
    int num_planes = 0;                ///< magnitude bit planes actually coded
    std::vector<std::uint8_t> data;    ///< one MQ codeword segment

    /// Coding passes in this block: 3p-2 for p planes (0 for an empty block).
    [[nodiscard]] int pass_count() const noexcept
    {
        return num_planes == 0 ? 0 : 3 * num_planes - 2;
    }
};

/// The three coding passes of a bit plane, in coding order.
enum class pass_kind { significance, refinement, cleanup };

/// Statistics reported by the decoder (drives the paper's timing model).
/// Counted only when a decoder is handed one.
struct tier1_stats {
    std::uint64_t mq_decisions = 0;  ///< binary decisions decoded
    std::uint64_t passes = 0;        ///< coding passes executed
    std::uint64_t samples = 0;       ///< samples visited across all passes

    /// Decisions decoded and wall time spent in one kind of pass.
    struct pass_totals {
        std::uint64_t decisions = 0;
        std::uint64_t ns = 0;
    };
    /// Indexed by pass_kind; the decisions sum to mq_decisions.
    std::array<pass_totals, 3> by_pass{};
};

/// Nominal code-block size used throughout this codec.
inline constexpr int k_codeblock_size = 32;

/// Most magnitude bit-planes a code-block may declare (a coefficient is an
/// int32 with its sign kept apart).  A larger count is stream corruption.
inline constexpr int k_max_bitplanes = 31;

/// Encode `w`×`h` signed quantised coefficients (row-major) of a subband with
/// orientation `orient`.
[[nodiscard]] codeblock tier1_encode(const std::int32_t* coeffs, int w, int h,
                                     band orient);

/// A code block coded as layered segments: the pass sequence is cut at layer
/// boundaries and the MQ codeword is terminated at each cut (contexts carry
/// over), so any prefix of whole segments decodes exactly.
struct layered_codeblock {
    struct segment {
        int passes = 0;                  ///< coding passes in this segment
        std::vector<std::uint8_t> data;  ///< terminated MQ codeword piece
    };
    int width = 0;
    int height = 0;
    int num_planes = 0;
    std::vector<segment> segments;       ///< one per quality layer

    [[nodiscard]] int total_passes() const noexcept
    {
        int n = 0;
        for (const auto& s : segments) n += s.passes;
        return n;
    }
};

/// Encode with quality layers: `passes_per_layer[l]` passes end up in
/// segment l (the last layer absorbs any remainder; leading layers may be
/// empty for blocks with few planes).
[[nodiscard]] layered_codeblock tier1_encode_layered(
    const std::int32_t* coeffs, int w, int h, band orient,
    const std::vector<int>& passes_per_layer);

/// Decode the first `layers` segments (0 = all); exact for full decodes,
/// progressively coarser for prefixes.  `mr`, when non-null, supplies the
/// decoder's per-block scratch (significance maps, magnitudes, contexts);
/// null uses the heap.
void tier1_decode_layered(const layered_codeblock& cb, std::int32_t* out,
                          band orient, int layers = 0,
                          tier1_stats* stats = nullptr,
                          std::pmr::memory_resource* mr = nullptr);

/// Resumable layer-by-layer decoder for one code block.  The coder state
/// (accumulated magnitudes, signs, significance map, MQ contexts, position in
/// the pass sequence) persists across calls, which is legal because the MQ
/// codeword is terminated at every layer boundary: feeding segment l to a
/// decoder that has consumed segments 0..l-1 reproduces the batch decode
/// bit for bit, while costing only segment l's passes.  This is what turns an
/// L-layer progressive session from O(L²) tier-1 work into O(L).
class tier1_block_decoder {
public:
    /// `num_planes` is stream data: implausible values throw codestream_error
    /// (empty geometry stays std::invalid_argument, as for tier1_decode).
    /// `mr` backs the per-block coder state; leave it null (heap) for
    /// decoders that outlive the resource — a session's persistent block
    /// slots always are.
    tier1_block_decoder(int width, int height, int num_planes, band orient,
                        std::pmr::memory_resource* mr = nullptr);
    ~tier1_block_decoder();

    tier1_block_decoder(tier1_block_decoder&&) noexcept;
    tier1_block_decoder& operator=(tier1_block_decoder&&) noexcept;
    tier1_block_decoder(const tier1_block_decoder&) = delete;
    tier1_block_decoder& operator=(const tier1_block_decoder&) = delete;

    /// Consume the next layer's segment: `passes` coding passes out of `data`
    /// (one terminated MQ codeword piece).  Passes beyond the block's pass
    /// sequence are ignored, matching tier1_decode_layered.
    void advance(int passes, std::span<const std::uint8_t> data,
                 tier1_stats* stats = nullptr);

    /// Write the current reconstruction (exact after all segments, coarser
    /// after a prefix) into the width×height block at `out`, whose rows lie
    /// `stride` samples apart — a code block's place in its tile plane.
    void read(std::int32_t* out, std::ptrdiff_t stride) const;
    /// read() into a dense row-major width×height block.
    void read(std::int32_t* out) const { read(out, width()); }

    [[nodiscard]] int width() const noexcept;
    [[nodiscard]] int height() const noexcept;
    [[nodiscard]] int segments_consumed() const noexcept;

    /// Bytes of coder state this decoder holds: its flag words, magnitude
    /// accumulator, MQ contexts and cursor — about 6 B per sample plus the
    /// padding columns, the last stripe rounded up to 4 rows, and a fixed
    /// part.
    [[nodiscard]] std::size_t resident_bytes() const noexcept;

private:
    struct state;
    std::unique_ptr<state> st_;
};

/// Decode a code block back into signed coefficients; exact inverse of
/// tier1_encode.  `data` is the block's MQ codeword segment, read in place
/// (a span into the codestream will do).  The width×height coefficients go
/// to `out`, rows `out_stride` samples apart, so a block decodes straight
/// into its tile plane.  `stats`, when non-null, is accumulated into.
///
/// `max_passes` > 0 truncates decoding after that many coding passes — the
/// SNR-scalability mechanism of EBCOT: fewer passes yield a coarser (but
/// valid) reconstruction from a prefix of the codeword.  0 decodes all.
void tier1_decode(int width, int height, int num_planes, std::span<const std::uint8_t> data,
                  std::int32_t* out, std::ptrdiff_t out_stride, band orient,
                  tier1_stats* stats = nullptr, int max_passes = 0,
                  std::pmr::memory_resource* mr = nullptr);

/// tier1_decode over an encoded block's own fields, into a dense block.
void tier1_decode(const codeblock& cb, std::int32_t* out, band orient,
                  tier1_stats* stats = nullptr, int max_passes = 0,
                  std::pmr::memory_resource* mr = nullptr);

}  // namespace j2k
