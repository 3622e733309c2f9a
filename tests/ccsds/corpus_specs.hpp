// The four golden-corpus streams as (file name, codec parameters, source
// cube) specs.  Shared by ccsds_corpus_gen, which writes tests/ccsds/corpus/,
// and test_ccsds_golden.cpp, which re-encodes each source and requires the
// committed bytes back — so the two can never drift apart.
#pragma once

#include <ccsds/ccsds123.hpp>
#include <codec/image.hpp>

#include <array>
#include <cstdint>

namespace ccsds_corpus {

struct source {
    int width, height, bands, bit_depth;
    std::uint32_t seed;

    [[nodiscard]] codec::image make() const
    {
        return codec::make_test_image(width, height, bands, bit_depth, seed);
    }
};

struct spec {
    const char* file;
    ccsds::params params;
    source src;
};

[[nodiscard]] inline ccsds::params params(int pred_bands, ccsds::neighbor_mode mode)
{
    ccsds::params p;
    p.pred_bands = pred_bands;
    p.mode = mode;
    return p;
}

inline const std::array<spec, 4> k_specs{{
    // The README quickstart cube: 8 bands, 16-bit, default predictor.
    {"cube_8b16_full.c123", params(3, ccsds::neighbor_mode::full), {64, 48, 8, 16, 42}},
    // Narrow local sums, deep predictor order.
    {"cube_17b12_narrow_p15.c123", params(15, ccsds::neighbor_mode::narrow),
     {40, 40, 17, 12, 7}},
    // Single band: purely spatial prediction.
    {"mono_16_p0.c123", params(0, ccsds::neighbor_mode::full), {96, 64, 1, 16, 13}},
    // Odd geometry, shallow depth.
    {"odd_5b2_33x17.c123", params(3, ccsds::neighbor_mode::full), {33, 17, 5, 2, 21}},
}};

}  // namespace ccsds_corpus
