// The MQ decoder against the reference decoder of mq_oracle.hpp: same
// decisions and same context states, decision by decision, over encoder
// output, random bytes, 0xFF stuffing, markers and truncated segments.
#include "mq_oracle.hpp"

#include <j2k/mq_coder.hpp>

#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace {

constexpr int k_states = 94;

/// The decisions both decoders agreed on, and the state bytes they were
/// decoded in.
struct agreement {
    std::vector<int> bits;
    std::bitset<k_states> states;
};

/// Decodes `ctx_seq.size()` decisions from `bytes` with both decoders; the
/// decision i uses context ctx_seq[i], and context c starts at state byte
/// init[c].  Fails at the first decision or context state that differs.
agreement expect_agreement(std::span<const std::uint8_t> bytes,
                           const std::vector<std::uint8_t>& init,
                           const std::vector<int>& ctx_seq)
{
    std::vector<j2k::mq_context> fast(init.size());
    std::vector<mq_oracle::context> ref(init.size());
    for (std::size_t c = 0; c < init.size(); ++c) {
        fast[c].state = init[c];
        ref[c] = {static_cast<std::uint8_t>(init[c] >> 1),
                  static_cast<std::uint8_t>(init[c] & 1u)};
    }
    j2k::mq_decoder dec{bytes};
    mq_oracle::decoder oracle{bytes};
    agreement out;
    for (std::size_t i = 0; i < ctx_seq.size(); ++i) {
        const auto c = static_cast<std::size_t>(ctx_seq[i]);
        out.states.set(fast[c].state);
        const int got = dec.decode(fast[c]);
        const int want = oracle.decode(ref[c]);
        EXPECT_EQ(got, want) << "decision " << i;
        EXPECT_EQ(fast[c].state, ref[c].index * 2 + ref[c].mps) << "decision " << i;
        if (::testing::Test::HasFailure()) break;
        out.bits.push_back(got);
    }
    return out;
}

/// Every state byte once, so decoding can start in any of the 94 states
/// (index 46, the uniform state, is reachable from no other).
std::vector<std::uint8_t> every_state()
{
    std::vector<std::uint8_t> init(k_states);
    for (int s = 0; s < k_states; ++s) init[static_cast<std::size_t>(s)] = static_cast<std::uint8_t>(s);
    return init;
}

std::vector<std::uint8_t> encode(const std::vector<int>& bits,
                                 const std::vector<std::uint8_t>& init,
                                 const std::vector<int>& ctx_seq)
{
    std::vector<j2k::mq_context> cx(init.size());
    for (std::size_t c = 0; c < init.size(); ++c) cx[c].state = init[c];
    j2k::mq_encoder enc;
    for (std::size_t i = 0; i < bits.size(); ++i)
        enc.encode(cx[static_cast<std::size_t>(ctx_seq[i])], bits[i]);
    return enc.flush();
}

std::vector<int> random_contexts(std::mt19937& rng, std::size_t n, int n_ctx)
{
    std::vector<int> seq(n);
    for (auto& c : seq) c = static_cast<int>(rng() % static_cast<unsigned>(n_ctx));
    return seq;
}

std::vector<int> random_bits(std::mt19937& rng, std::size_t n, double p_one)
{
    std::bernoulli_distribution one{p_one};
    std::vector<int> bits(n);
    for (auto& b : bits) b = one(rng) ? 1 : 0;
    return bits;
}

TEST(MqOracle, StateTableExpandsTableC2)
{
    for (int s = 0; s < k_states; ++s) {
        const auto& t = j2k::detail::k_mq_transitions[static_cast<std::size_t>(s)];
        const j2k::mq_state& row = j2k::mq_table(static_cast<std::uint8_t>(s >> 1));
        const int mps = s & 1;
        EXPECT_EQ(t.qe, row.qe) << s;
        EXPECT_EQ(t.next[0], row.nmps * 2 + mps) << s;
        EXPECT_EQ(t.next[1], row.nlps * 2 + (mps ^ row.sw)) << s;
    }
}

TEST(MqOracle, RandomContextSequencesAgreeInAllStates)
{
    std::mt19937 rng{2024};
    const auto init = every_state();
    std::bitset<k_states> seen;
    for (int trial = 0; trial < 12; ++trial) {
        const std::size_t n = 4000 + rng() % 4000;
        const auto ctx = random_contexts(rng, n, k_states);
        // Encoder output, from nearly constant to balanced sources...
        const auto bits = random_bits(rng, n, 0.02 + 0.04 * trial);
        const auto bytes = encode(bits, init, ctx);
        const agreement a = expect_agreement(bytes, init, ctx);
        ASSERT_FALSE(HasFailure()) << "trial " << trial;
        EXPECT_EQ(a.bits, bits) << "trial " << trial;
        seen |= a.states;
        // ...and bytes no encoder wrote.
        std::vector<std::uint8_t> noise(n / 8);
        for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
        seen |= expect_agreement(noise, init, ctx).states;
        ASSERT_FALSE(HasFailure()) << "noise trial " << trial;
    }
    EXPECT_TRUE(seen.all()) << seen.count() << " of 94 states decoded from";
}

TEST(MqOracle, StuffedBytesAgree)
{
    std::mt19937 rng{3};
    const std::vector<std::uint8_t> init(4, 0);
    const auto ctx = random_contexts(rng, 50'000, 4);
    const auto bits = random_bits(rng, ctx.size(), 0.5);
    const auto bytes = encode(bits, init, ctx);
    std::size_t stuffed = 0;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) stuffed += bytes[i] == 0xFF;
    ASSERT_GT(stuffed, 0u) << "no 0xFF to unstuff";
    EXPECT_EQ(expect_agreement(bytes, init, ctx).bits, bits);

    // Every other byte 0xFF, each followed by a byte BYTEIN must unstuff.
    std::vector<std::uint8_t> dense;
    for (int i = 0; i < 2000; ++i) {
        dense.push_back(0xFF);
        dense.push_back(static_cast<std::uint8_t>(rng() % 0x90));
    }
    (void)expect_agreement(dense, every_state(), random_contexts(rng, 20'000, k_states));

    // The top bit of a stuffed 0x89 lands on bit 16 of C.  Loading it as
    // soon as a RENORMD empties CT, rather than at the next shift, changes
    // decision 63 in state 72 (found by search).
    const std::vector<std::uint8_t> early = {0x51, 0xFF, 0x89};
    (void)expect_agreement(early, {72}, std::vector<int>(63, 0));
}

TEST(MqOracle, MarkerMidSegmentAgrees)
{
    std::mt19937 rng{11};
    const std::vector<std::uint8_t> init(19, 0);
    const auto ctx = random_contexts(rng, 6000, 19);
    const auto bytes = encode(random_bits(rng, ctx.size(), 0.3), init, ctx);
    ASSERT_GT(bytes.size(), 16u);
    for (const std::uint8_t marker : {0x90, 0xA5, 0xFF}) {
        for (const std::size_t at : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
            auto cut = bytes;
            cut[at] = 0xFF;
            if (at + 1 < cut.size()) cut[at + 1] = marker;
            // Decode well past the marker: both feed 1-bits from there on.
            auto longer = ctx;
            longer.insert(longer.end(), ctx.begin(), ctx.begin() + 2000);
            (void)expect_agreement(cut, init, longer);
            ASSERT_FALSE(HasFailure()) << "marker " << int{marker} << " at " << at;
        }
    }
}

TEST(MqOracle, TruncatedAndEmptySegmentsAgree)
{
    std::mt19937 rng{5};
    const auto init = every_state();
    const auto ctx = random_contexts(rng, 600, k_states);
    const auto bytes = encode(random_bits(rng, ctx.size(), 0.2), init, ctx);
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
        (void)expect_agreement(std::span{bytes}.first(len), init, ctx);
        ASSERT_FALSE(HasFailure()) << "prefix of " << len << " bytes";
    }
    (void)expect_agreement({}, init, ctx);
}

}  // namespace
