// Golden regression corpus: committed CCSDS-123 streams whose decoded cubes
// must hash to known values.  This pins the *decoder output*, not just
// self-consistency — an encode/decode round-trip test cannot see a bug that
// changes both sides symmetrically (the predictor recurrence is shared code,
// so that failure mode is exactly the one to guard).  The encoder is pinned
// too: re-encoding each source must give the committed bytes back, so the
// stream format itself cannot drift while the decoded cubes stay the same.
//
// Regenerate corpus files and hashes with the `ccsds_corpus_gen` tool when
// the stream format changes intentionally (see corpus/README.md).
#include "corpus_specs.hpp"

#include <runtime/hash.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace {

using runtime::fnv1a_image;

std::vector<std::uint8_t> load(const std::string& name)
{
    const std::string path = std::string{CCSDS_CORPUS_DIR} + "/" + name;
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error{"missing corpus file: " + path};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

struct golden {
    const char* file;
    std::uint64_t hash;
};

// Hashes printed by ccsds_corpus_gen at generation time.
constexpr golden k_golden[] = {
    {"cube_8b16_full.c123", 0x39DDE051CC8AA7DEull},
    {"cube_17b12_narrow_p15.c123", 0xB75EAD246822FA6Aull},
    {"mono_16_p0.c123", 0x151D1565FC14F799ull},
    {"odd_5b2_33x17.c123", 0xA7424114318957B1ull},
};

TEST(CcsdsGolden, DecodedCubesMatchCommittedHashes)
{
    for (const auto& g : k_golden) {
        const auto cs = load(g.file);
        const codec::image img = ccsds::decode(cs);
        EXPECT_EQ(fnv1a_image(img), g.hash) << g.file;
    }
}

TEST(CcsdsGolden, EveryStreamAlsoMatchesItsSourceCubeExactly)
{
    // The codec is lossless: beyond the hash, each decode must equal the
    // generator's source cube sample for sample.
    for (const auto& s : ccsds_corpus::k_specs)
        EXPECT_EQ(ccsds::decode(load(s.file)), s.src.make()) << s.file;
}

TEST(CcsdsGolden, EncoderReproducesCommittedStreams)
{
    for (const auto& s : ccsds_corpus::k_specs)
        EXPECT_EQ(ccsds::encode(s.src.make(), s.params), load(s.file)) << s.file;
}

}  // namespace
