// Structure-aware codestream fuzzing: mutate valid streams (byte flips,
// truncations, splices, targeted header corruption) and require that decode
// either succeeds or throws codestream_error — never any other exception,
// crash, hang, or sanitizer report.  Deterministic: a fixed xorshift64 seed
// drives every mutation, so failures replay exactly.
//
// Iteration count scales with the FUZZ_ITERS environment variable (default
// 300 per corpus stream); CI's nightly schedule raises it.
#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace {

/// xorshift64: tiny, deterministic, good enough to drive mutations.
class xorshift64 {
public:
    explicit xorshift64(std::uint64_t seed) : s_{seed ? seed : 0x9E3779B97F4A7C15ull}
    {
    }
    std::uint64_t next()
    {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }
    /// Uniform-ish value in [0, n).
    std::size_t below(std::size_t n) { return n ? next() % n : 0; }

private:
    std::uint64_t s_;
};

int fuzz_iters()
{
    if (const char* env = std::getenv("FUZZ_ITERS")) {
        const int v = std::atoi(env);
        if (v > 0) return v;
    }
    return 300;
}

std::vector<std::uint8_t> make_stream(int w, int h, int comps, int tile,
                                      j2k::wavelet mode, int layers)
{
    const j2k::image img = j2k::make_test_image(w, h, comps);
    j2k::codec_params p;
    p.tile_width = tile;
    p.tile_height = tile;
    p.mode = mode;
    p.quality_layers = layers;
    return j2k::encode(img, p);
}

/// Apply one randomly chosen mutation.  Mutations deliberately skew toward
/// the header and directory region (first ~64 bytes) where a flipped byte
/// changes the decode's control flow rather than just one coefficient.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& seed,
                                 xorshift64& rng)
{
    std::vector<std::uint8_t> cs = seed;
    switch (rng.below(6)) {
    case 0: {  // flip 1..8 random bytes anywhere
        const std::size_t flips = 1 + rng.below(8);
        for (std::size_t i = 0; i < flips && !cs.empty(); ++i)
            cs[rng.below(cs.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    }
    case 1: {  // corrupt the header/directory region specifically
        const std::size_t region = std::min<std::size_t>(cs.size(), 64);
        const std::size_t flips = 1 + rng.below(4);
        for (std::size_t i = 0; i < flips && region; ++i)
            cs[rng.below(region)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    }
    case 2:  // truncate to a random prefix (possibly empty)
        cs.resize(rng.below(cs.size() + 1));
        break;
    case 3: {  // splice: overwrite a run with bytes from elsewhere
        if (cs.size() > 8) {
            const std::size_t len = 1 + rng.below(cs.size() / 4);
            const std::size_t dst = rng.below(cs.size() - len);
            const std::size_t src = rng.below(cs.size() - len);
            for (std::size_t i = 0; i < len; ++i) cs[dst + i] = cs[src + i];
        }
        break;
    }
    case 4: {  // insert random garbage mid-stream
        const std::size_t at = rng.below(cs.size() + 1);
        const std::size_t len = 1 + rng.below(32);
        std::vector<std::uint8_t> junk(len);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
        cs.insert(cs.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(),
                  junk.end());
        break;
    }
    default: {  // delete a random run
        if (cs.size() > 4) {
            const std::size_t len = 1 + rng.below(cs.size() / 2);
            const std::size_t at = rng.below(cs.size() - len);
            cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(at),
                     cs.begin() + static_cast<std::ptrdiff_t>(at + len));
        }
        break;
    }
    }
    return cs;
}

/// The property under test: decode of arbitrary bytes either produces an
/// image or throws codestream_error.  Anything else is a bug.
void expect_clean_decode(const std::vector<std::uint8_t>& cs, std::uint64_t iter)
{
    try {
        const j2k::image img = j2k::decode(cs);
        // Survived decode: the geometry the header promised must hold.
        EXPECT_GT(img.width(), 0) << "iter " << iter;
        EXPECT_GT(img.height(), 0) << "iter " << iter;
    } catch (const j2k::codestream_error&) {
        // Expected failure mode for malformed input.
    } catch (const std::exception& e) {
        FAIL() << "iter " << iter << ": decode threw "
               << typeid(e).name() << " (" << e.what()
               << ") instead of codestream_error";
    }
}

/// Interpret a random slice of `bytes` as one code block's MQ codeword, with
/// random geometry, orientation and plane count, and decode it through both
/// tier-1 entry points: the one-shot tier1_decode and the resumable block
/// decoder (tier1_decode_layered over a single segment).  The MQ decoder
/// accepts any bytes (it feeds 1-bits past the end), so this is a pure
/// differential with no error arm; under ASan it also proves that neither
/// path reads outside the segment or the block.
void tier1_path_differential(const std::vector<std::uint8_t>& bytes, xorshift64& rng,
                             int iter)
{
    j2k::codeblock cb;
    cb.width = 1 + static_cast<int>(rng.below(32));
    cb.height = 1 + static_cast<int>(rng.below(32));
    cb.num_planes = 1 + static_cast<int>(rng.below(31));
    const auto orient = static_cast<j2k::band>(rng.below(4));
    const std::size_t len = rng.below(std::min<std::size_t>(bytes.size(), 256) + 1);
    const std::size_t at = rng.below(bytes.size() - len + 1);
    cb.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   bytes.begin() + static_cast<std::ptrdiff_t>(at + len));

    j2k::layered_codeblock lcb;
    lcb.width = cb.width;
    lcb.height = cb.height;
    lcb.num_planes = cb.num_planes;
    lcb.segments.push_back({cb.pass_count(), cb.data});

    const auto n = static_cast<std::size_t>(cb.width) * static_cast<std::size_t>(cb.height);
    std::vector<std::int32_t> one_shot(n), resumable(n);
    j2k::tier1_stats a, b;
    j2k::tier1_decode(cb, one_shot.data(), orient, &a);
    j2k::tier1_decode_layered(lcb, resumable.data(), orient, 0, &b);
    ASSERT_EQ(one_shot, resumable) << "iter " << iter;
    ASSERT_EQ(a.mq_decisions, b.mq_decisions) << "iter " << iter;
    ASSERT_EQ(a.passes, b.passes) << "iter " << iter;
    ASSERT_EQ(a.samples, b.samples) << "iter " << iter;
}

class CodestreamFuzz : public ::testing::TestWithParam<int> {};

TEST(CodestreamFuzz, MutatedStreamsNeverEscapeTheErrorContract)
{
    const std::vector<std::vector<std::uint8_t>> seeds = {
        make_stream(64, 64, 1, 32, j2k::wavelet::w5_3, 1),   // lossless, 4 tiles
        make_stream(64, 64, 3, 64, j2k::wavelet::w9_7, 1),   // lossy, 1 tile
        make_stream(64, 64, 3, 32, j2k::wavelet::w5_3, 3),   // layered directory
    };
    const int iters = fuzz_iters();
    std::uint64_t iter = 0;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        // Seed folds in the corpus index so each stream gets its own sequence.
        xorshift64 rng{0xC0DEC0DEull * (s + 1)};
        // The pristine stream must of course decode.
        EXPECT_NO_THROW((void)j2k::decode(seeds[s])) << "corpus " << s;
        for (int i = 0; i < iters; ++i, ++iter)
            expect_clean_decode(mutate(seeds[s], rng), iter);
    }
}

TEST(CodestreamFuzz, MutatedSegmentsDecodeIdenticallyOnBothTier1Paths)
{
    // Malformed segments (mid-codeword truncation, 0xFF-saturated garbage)
    // must keep the clean error contract through the full decoder, and as
    // raw code-block codewords must drive the one-shot and the resumable
    // tier-1 decoders to the same coefficients and the same counters.
    const auto seed = make_stream(64, 64, 3, 32, j2k::wavelet::w5_3, 3);
    const int iters = std::max(fuzz_iters() / 3, 100);
    xorshift64 rng{0xFA57C0DEull};
    for (int i = 0; i < iters; ++i) {
        const auto cs = mutate(seed, rng);
        expect_clean_decode(cs, static_cast<std::uint64_t>(i));
        if (!cs.empty()) tier1_path_differential(cs, rng, i);
    }
}

TEST(CodestreamFuzz, PureGarbageIsRejectedNotCrashed)
{
    xorshift64 rng{0xBADF00Dull};
    for (int i = 0; i < 64; ++i) {
        std::vector<std::uint8_t> junk(rng.below(512));
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
        expect_clean_decode(junk, static_cast<std::uint64_t>(i));
    }
}

TEST(CodestreamFuzz, HostileHeadersFailBeforeAllocatingFromThem)
{
    // Hand-built headers with absurd geometry: the resource limits must
    // reject them with codestream_error before decode sizes anything.
    struct bomb {
        const char* name;
        std::uint32_t w, h;
        std::uint8_t comps, depth;
        std::uint32_t tw, th;
        std::uint8_t layers;
    };
    const bomb bombs[] = {
        {"giant image", 0x7FFFFFFF, 0x7FFFFFFF, 1, 8, 64, 64, 1},
        {"sample bomb", 1 << 19, 1 << 19, 4, 8, 1 << 19, 1 << 19, 1},
        {"tile bomb", 1 << 19, 1 << 19, 1, 8, 1, 1, 1},
        {"depth bomb", 64, 64, 1, 255, 64, 64, 1},
        {"layer directory bomb", 1 << 16, 1 << 16, 1, 8, 64, 64, 255},
    };
    for (const auto& b : bombs) {
        j2k::byte_writer w;
        w.u32(j2k::k_magic);
        w.u8(j2k::k_version);
        w.u32(b.w);
        w.u32(b.h);
        w.u8(b.comps);
        w.u8(b.depth);
        w.u32(b.tw);
        w.u32(b.th);
        w.u8(0);  // 5/3
        w.u8(2);  // levels
        w.u8(b.layers);
        w.f64(0.01);
        w.u8(2);  // guard bits
        const auto cs = w.take();
        EXPECT_THROW((void)j2k::decode(cs), j2k::codestream_error) << b.name;
    }
}

}  // namespace
