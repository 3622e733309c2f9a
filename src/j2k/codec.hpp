// j2k/codec.hpp — the JPEG 2000 encoder and the staged decoder.
//
// The decoder exposes the exact stage split of the paper's Figure 1 so the
// OSSS models can map each stage onto hardware or software independently:
//
//   codestream → [entropy_decode] → [dequantize (IQ)] → [idwt] → tile pixels
//   assembled image → [inverse colour transform (ICT/RCT)] → [DC shift]
//
// Each stage is a pure function over value types, which is what makes the
// application-layer restructurings of Section 3 (pipelining, parallel tiles,
// four parallel arithmetic decoders) possible without touching stage code.
#pragma once

#include "codestream.hpp"
#include "color.hpp"
#include "tier1.hpp"

#include <codec/backend.hpp>

#include <algorithm>
#include <chrono>
#include <optional>

namespace j2k {

/// Encoder configuration.
struct codec_params {
    int tile_width = 64;
    int tile_height = 64;
    wavelet mode = wavelet::w5_3;
    int levels = 3;
    /// >1 produces a quality-progressive (layer-major) stream: each code
    /// block's coding passes are split over this many layers with the MQ
    /// codeword terminated at layer boundaries, so byte prefixes of the
    /// stream decode to progressively better images.
    int quality_layers = 1;
    quant_params quant;
};

/// Quantised coefficients of one tile (quadrant subband layout, per component).
struct tile_coeffs {
    tile_rect rect;
    std::vector<plane> comps;
};

/// Dequantised wavelet coefficients of one tile.
struct tile_wavelet {
    tile_rect rect;
    bool lossy = false;
    std::vector<plane> iplanes;                 ///< 5/3 path (ints)
    std::vector<std::vector<double>> dplanes;   ///< 9/7 path (doubles)
};

/// Spatial samples of one tile (still colour-transformed and DC-shifted).
struct tile_pixels {
    tile_rect rect;
    std::vector<plane> comps;
};

/// Work counters accumulated during decoding; these drive the execution-time
/// model used by the OSSS case-study (Section "timing back-annotation").
struct decode_stats {
    tier1_stats t1;
    std::uint64_t iq_samples = 0;
    std::uint64_t idwt_samples = 0;
    std::uint64_t ict_samples = 0;
    std::uint64_t dc_samples = 0;
};

/// Encode `img` into a codestream.
[[nodiscard]] std::vector<std::uint8_t> encode(const image& img, const codec_params& p);

/// Staged decoder over a parsed codestream.  The codestream bytes must
/// outlive the decoder (they are referenced, not copied).
class decoder {
public:
    explicit decoder(std::span<const std::uint8_t> cs);

    [[nodiscard]] const stream_info& info() const noexcept { return info_; }
    /// The referenced codestream bytes (what the constructor was given).
    [[nodiscard]] std::span<const std::uint8_t> codestream() const noexcept
    {
        return cs_;
    }
    [[nodiscard]] int tile_count() const noexcept { return info_.tile_count(); }
    [[nodiscard]] std::vector<tile_rect> tiles() const;

    /// Stage 1 — arithmetic (tier-1) decoding of one tile.  The hot stage.
    /// Each code block is written once, straight into its tile plane.  `mr`,
    /// when non-null, backs the per-code-block decoder scratch (see
    /// tier1_decode); null uses the heap.
    [[nodiscard]] tile_coeffs entropy_decode(
        int tile_index, tier1_stats* stats = nullptr,
        std::pmr::memory_resource* mr = nullptr) const;

    /// SNR scalability: cap the tier-1 coding passes decoded per code block
    /// (0 = all).  Fewer passes trade quality for arithmetic-decoding work —
    /// the EBCOT rate/quality knob.
    void set_max_passes(int max_passes) noexcept { max_passes_ = max_passes; }
    [[nodiscard]] int max_passes() const noexcept { return max_passes_; }

    /// Layered streams: decode only the first `layers` quality layers
    /// (0 = all).  Combine with info().layers_in_prefix(bytes) to decode a
    /// truncated download.
    void set_max_quality_layers(int layers) noexcept { max_layers_ = layers; }
    [[nodiscard]] int max_quality_layers() const noexcept { return max_layers_; }

    /// Stage 2 — inverse quantisation.  Takes the tile by value: moved in,
    /// the lossless path hands its planes on without a copy (IQ is the
    /// identity there).
    [[nodiscard]] tile_wavelet dequantize(tile_coeffs tc) const;

    /// Stage 3 — inverse DWT (5/3 or 9/7 as per stream mode), in place in the
    /// tile's own planes (move it in to spare the copy).  `mr` backs the
    /// transform's scratch (grid, row buffer).
    [[nodiscard]] tile_pixels idwt(tile_wavelet tw,
                                   std::pmr::memory_resource* mr = nullptr) const;

    /// Stages 4+5 over an assembled image — inverse colour transform and
    /// inverse DC shift.
    void finish(image& img) const;

    /// All stages over all tiles; fills `stats` when non-null.
    [[nodiscard]] image decode_all(decode_stats* stats = nullptr) const;

    /// decode_all with tiles distributed over `threads` host threads (tiles
    /// are fully independent, so the result is identical).  `threads` <= 0
    /// uses the hardware concurrency.
    [[nodiscard]] image decode_all_parallel(int threads) const;

    /// Resolution scalability: decode at 1/2^discard of the full resolution
    /// by synthesising `discard` fewer wavelet levels.  Tier-1 work is
    /// unchanged but the IDWT and downstream stages shrink by ~4^discard.
    /// `profile`, when non-null, accumulates the per-stage wall time.
    [[nodiscard]] image decode_reduced(int discard, decode_stats* stats = nullptr,
                                       codec::stage_profile* profile = nullptr) const;

private:
    [[nodiscard]] tile_coeffs entropy_decode_layered(
        const tile_rect& tr, tier1_stats* stats, std::pmr::memory_resource* mr) const;

    std::span<const std::uint8_t> cs_;
    stream_info info_;
    int max_passes_ = 0;
    int max_layers_ = 0;
};

/// One-shot convenience wrapper.
[[nodiscard]] image decode(std::span<const std::uint8_t> cs,
                           decode_stats* stats = nullptr);

namespace detail {

/// Splits wall time over the stages of a profile: each add() charges the
/// time since construction or the previous add() to one stage.  A no-op when
/// the profile is null.
class stage_laps {
public:
    explicit stage_laps(codec::stage_profile* p) noexcept
        : p_{p}, t_{std::chrono::steady_clock::now()}
    {
    }
    void add(std::uint64_t codec::stage_profile::*stage) noexcept
    {
        if (p_ == nullptr) return;
        const auto now = std::chrono::steady_clock::now();
        p_->*stage += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - t_).count());
        t_ = now;
    }

private:
    codec::stage_profile* p_;
    std::chrono::steady_clock::time_point t_;
};

/// Iterate the code blocks of a subband rectangle in raster order — the
/// canonical block order every codestream reader/writer must agree on
/// (encoder, one-shot decoder, and the resumable decode_session).
template <typename Fn>
void for_each_codeblock(const band_rect& br, Fn&& fn)
{
    for (int y = 0; y < br.height; y += k_codeblock_size) {
        for (int x = 0; x < br.width; x += k_codeblock_size) {
            const int w = std::min(k_codeblock_size, br.width - x);
            const int h = std::min(k_codeblock_size, br.height - y);
            fn(br.x0 + x, br.y0 + y, w, h);
        }
    }
}

}  // namespace detail

}  // namespace j2k
