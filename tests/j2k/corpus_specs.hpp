// The five golden-corpus streams as (file name, codec parameters, source
// image) specs.  Shared by corpus_gen, which writes tests/j2k/corpus/, and
// test_golden.cpp, which re-encodes each source and requires the committed
// bytes back — so the two can never drift apart.
#pragma once

#include <j2k/j2k.hpp>

#include <array>

namespace j2k_corpus {

struct source {
    int width, height, components, bit_depth;
    std::uint32_t seed;

    [[nodiscard]] j2k::image make() const
    {
        return j2k::make_test_image(width, height, components, bit_depth, seed);
    }
};

struct spec {
    const char* file;
    j2k::codec_params params;
    source src;
};

[[nodiscard]] inline j2k::codec_params params(int tile, j2k::wavelet mode, int layers)
{
    j2k::codec_params p;
    p.tile_width = p.tile_height = tile;
    p.mode = mode;
    p.quality_layers = layers;
    return p;
}

inline const std::array<spec, 5> k_specs{{
    // Lossless 5/3, greyscale, 2x2 tile grid.
    {"gray_53.ojk", params(32, j2k::wavelet::w5_3, 1), {64, 64, 1, 8, 7}},
    // Lossy 9/7, RGB, single tile.
    {"rgb_97.ojk", params(64, j2k::wavelet::w9_7, 1), {64, 64, 3, 8, 11}},
    // Layered 5/3, RGB, 3 quality layers over 4 tiles.
    {"layered_53.ojk", params(32, j2k::wavelet::w5_3, 3), {64, 64, 3, 8, 13}},
    // Odd geometry: prime-ish extents over 32-px tiles give a 3x2 grid whose
    // right/bottom tiles are partial (33x32, 65x1-high edge cases inside).
    {"odd_65x33.ojk", params(32, j2k::wavelet::w5_3, 3), {65, 33, 1, 8, 21}},
    // 16-bit depth: twice the bit planes through tier-1 and the DC shift.
    {"gray16_53.ojk", params(32, j2k::wavelet::w5_3, 1), {48, 48, 1, 16, 33}},
}};

}  // namespace j2k_corpus
