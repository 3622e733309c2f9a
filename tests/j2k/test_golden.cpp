// Golden regression corpus: committed codestreams (lossless 5/3, lossy 9/7,
// layered, odd-geometry, 16-bit) whose decoded pixels must hash to known
// values.  This
// pins the *decoder output*, not just self-consistency — an encode/decode
// round-trip test cannot see a bug that changes both sides symmetrically.
//
// The encoder is pinned too (re-encoding each source must give the committed
// bytes back), and so is tier-1's work accounting: the decision/pass/sample
// counters that drive decoder::sw_timing, and pass-truncated decodes, which
// expose any coder state that leaks from one pass into the next.
//
// Regenerate corpus files and hashes with the `corpus_gen` tool when the
// format changes intentionally (see corpus/README.md).
#include "corpus_specs.hpp"

#include <j2k/backend.hpp>
#include <j2k/session.hpp>
#include <runtime/hash.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace {

using runtime::fnv1a_image;

std::vector<std::uint8_t> load(const std::string& name)
{
    const std::string path = std::string{J2K_CORPUS_DIR} + "/" + name;
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error{"missing corpus file: " + path};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

struct golden {
    const char* file;
    std::uint64_t hash;
};

// Hashes printed by corpus_gen at generation time.
constexpr golden k_golden[] = {
    {"gray_53.ojk", 0xEE1435E1050DF733ull},
    {"rgb_97.ojk", 0x2ABEA0B3B87A8999ull},
    {"layered_53.ojk", 0xAA4C7851D4825229ull},
    {"odd_65x33.ojk", 0x80E88702BCF63C11ull},
    {"gray16_53.ojk", 0x58700F9E92184262ull},
};

TEST(GoldenCorpus, DecodedPixelsMatchCommittedHashes)
{
    // The one-shot decoder and the registered backend (the service's path).
    const codec::backend& be = j2k::ensure_backend_registered();
    for (const auto& g : k_golden) {
        const auto cs = load(g.file);
        EXPECT_EQ(fnv1a_image(j2k::decode(cs)), g.hash) << g.file;
        EXPECT_EQ(fnv1a_image(be.decode(cs, {})), g.hash) << g.file << " (backend)";
    }
}

TEST(GoldenCorpus, LosslessStreamAlsoMatchesItsSourceImageExactly)
{
    // The 5/3 streams are reversible: beyond the hash, the decode must equal
    // the generator's source image sample for sample.
    const j2k::image src = j2k::make_test_image(64, 64, 1, 8, 7);
    EXPECT_EQ(j2k::decode(load("gray_53.ojk")), src);
    const j2k::image src3 = j2k::make_test_image(64, 64, 3, 8, 13);
    EXPECT_EQ(j2k::decode(load("layered_53.ojk")), src3);
    const j2k::image odd = j2k::make_test_image(65, 33, 1, 8, 21);
    EXPECT_EQ(j2k::decode(load("odd_65x33.ojk")), odd);
    const j2k::image deep = j2k::make_test_image(48, 48, 1, 16, 33);
    EXPECT_EQ(j2k::decode(load("gray16_53.ojk")), deep);
}

TEST(GoldenCorpus, LayeredStreamDegradesGracefullyByLayer)
{
    const auto cs = load("layered_53.ojk");
    j2k::decoder full{cs};
    const j2k::image best = full.decode_all();
    j2k::decoder capped{cs};
    capped.set_max_quality_layers(1);
    const j2k::image worst = capped.decode_all();
    // Fewer layers, lower fidelity — but identical geometry.
    EXPECT_EQ(worst.width(), best.width());
    EXPECT_EQ(worst.height(), best.height());
    const j2k::image src = j2k::make_test_image(64, 64, 3, 8, 13);
    EXPECT_LE(j2k::psnr(src, worst), j2k::psnr(src, best));
}

TEST(GoldenCorpus, EncoderReproducesCommittedStreams)
{
    for (const auto& s : j2k_corpus::k_specs)
        EXPECT_EQ(j2k::encode(s.src.make(), s.params), load(s.file)) << s.file;
}

/// One FNV-1a digest over 64 seeded 9/7 encodes, one over their decodes.
/// The 9/7 transforms and the irreversible colour transforms are the codec's
/// double arithmetic: built for an FMA target (-march=x86-64-v3), any TU that
/// let the compiler contract their multiply-adds would encode some of these
/// images to other bytes.
TEST(GoldenCorpus, Seeded97EncodesAndDecodesMatchPinnedDigests)
{
    constexpr int k_extents[] = {5, 16, 31, 33, 48, 64, 65, 80};
    std::mt19937 rng{0x97D16E57u};
    runtime::fnv1a streams;
    runtime::fnv1a pixels;
    for (int i = 0; i < 64; ++i) {
        const int w = k_extents[rng() % std::size(k_extents)];
        const int h = k_extents[rng() % std::size(k_extents)];
        const int comps = rng() % 2 == 0 ? 1 : 3;
        const int depth = rng() % 2 == 0 ? 8 : 12;
        j2k::codec_params p;
        p.mode = j2k::wavelet::w9_7;
        p.levels = 1 + static_cast<int>(rng() % 5);
        p.tile_width = p.tile_height = rng() % 2 == 0 ? 32 : 64;
        const auto cs = j2k::encode(j2k::make_test_image(w, h, comps, depth, rng()), p);
        streams.bytes(cs);
        pixels.u64(fnv1a_image(j2k::decode(cs)));
    }
    EXPECT_EQ(streams.value(), 0x46C667823B3D3A7Full);
    EXPECT_EQ(pixels.value(), 0xA7B5AB6ED61E1359ull);
}

struct t1_counters {
    const char* file;
    std::uint64_t mq_decisions, passes, samples;
};

// tier1_stats of a full decode of each corpus stream.
constexpr t1_counters k_t1_counters[] = {
    {"gray_53.ojk", 24278, 688, 19991},
    {"rgb_97.ojk", 32064, 177, 26027},
    {"layered_53.ojk", 74272, 2124, 61522},
    {"odd_65x33.ojk", 12742, 546, 10517},
    {"gray16_53.ojk", 30246, 1630, 27715},
};

TEST(GoldenCorpus, Tier1CountersMatchCommittedValues)
{
    for (const auto& g : k_t1_counters) {
        j2k::decode_stats st;
        (void)j2k::decode(load(g.file), &st);
        EXPECT_EQ(st.t1.mq_decisions, g.mq_decisions) << g.file;
        EXPECT_EQ(st.t1.passes, g.passes) << g.file;
        EXPECT_EQ(st.t1.samples, g.samples) << g.file;
    }
}

/// Every coefficient of every tile, through decoder::entropy_decode.
std::vector<j2k::plane> all_coefficients(const j2k::decoder& dec, j2k::tier1_stats* stats)
{
    std::vector<j2k::plane> out;
    for (int t = 0; t < dec.tile_count(); ++t)
        for (auto& p : dec.entropy_decode(t, stats).comps) out.push_back(std::move(p));
    return out;
}

TEST(GoldenCorpus, CountingLeavesCoefficientsUnchanged)
{
    // Tier-1 runs one pass engine instantiated with and without counting;
    // asking for tier1_stats must change nothing but the counters.
    for (const auto& g : k_t1_counters) {
        const auto cs = load(g.file);
        j2k::decoder dec{cs};
        // Plain streams take tier1_decode, layered ones the block decoder
        // fed straight from the codestream's chunks.
        j2k::tier1_stats counted;
        EXPECT_EQ(all_coefficients(dec, &counted), all_coefficients(dec, nullptr)) << g.file;
        EXPECT_EQ(counted.mq_decisions, g.mq_decisions) << g.file;
        EXPECT_EQ(counted.passes, g.passes) << g.file;
        EXPECT_EQ(counted.samples, g.samples) << g.file;
        // A pass-truncated plain decode, and a one-layer layered one.
        dec.set_max_passes(5);
        dec.set_max_quality_layers(1);
        EXPECT_EQ(all_coefficients(dec, &counted), all_coefficients(dec, nullptr)) << g.file;

        // The resumable session, layer by layer.
        j2k::decode_session with{cs};
        j2k::decode_session without{cs};
        for (int l = 1; l <= with.total_layers(); ++l) {
            j2k::decode_stats st;
            EXPECT_EQ(with.advance_to(l, &st), without.advance_to(l)) << g.file << " layer " << l;
            EXPECT_GT(st.t1.mq_decisions, 0u) << g.file << " layer " << l;
        }
    }
}

struct truncated {
    const char* file;
    int max_passes;
    std::uint64_t hash;
};

// FNV-1a of decoder::set_max_passes(k) decodes.
constexpr truncated k_truncated[] = {
    {"gray_53.ojk", 1, 0x034244FEAA1DD4C7ull}, {"gray_53.ojk", 2, 0x71C71B6388CFF65Cull},
    {"gray_53.ojk", 3, 0x6AC5FA8B2F1069D5ull}, {"gray_53.ojk", 5, 0xCB41733EB202EB4Dull},
    {"gray_53.ojk", 8, 0xC053A7ED3C68A33Eull}, {"gray_53.ojk", 13, 0x4A8435074E0761DAull},
    {"gray16_53.ojk", 1, 0x7562C2505955D5BFull}, {"gray16_53.ojk", 2, 0x60039420A0376ABEull},
    {"gray16_53.ojk", 3, 0xBA6A960C99209E2Eull}, {"gray16_53.ojk", 5, 0x9114ACD667F5AC7Cull},
    {"gray16_53.ojk", 8, 0xAB798D45EB7B53F8ull}, {"gray16_53.ojk", 13, 0xBE25ACD88A4C527Eull},
    {"rgb_97.ojk", 1, 0xC2C8FEEDD7C9DB66ull}, {"rgb_97.ojk", 2, 0xC658630FFD4C93E7ull},
    {"rgb_97.ojk", 3, 0xD0A8D424D64D5D6Full}, {"rgb_97.ojk", 5, 0x1E9A915C905C149Eull},
    {"rgb_97.ojk", 8, 0x0921C69BA8E76B3Dull}, {"rgb_97.ojk", 13, 0x2ABEA0B3B87A8999ull},
};

TEST(GoldenCorpus, TruncatedDecodesMatchCommittedHashes)
{
    for (const auto& g : k_truncated) {
        const auto cs = load(g.file);
        j2k::decoder dec{cs};
        dec.set_max_passes(g.max_passes);
        EXPECT_EQ(fnv1a_image(dec.decode_all()), g.hash)
            << g.file << " max_passes=" << g.max_passes;
    }
}

}  // namespace
