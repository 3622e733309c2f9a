// MQ arithmetic coder: encode/decode round trips, adaptation, edge cases.
#include <j2k/mq_coder.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace {

using j2k::mq_context;
using j2k::mq_decoder;
using j2k::mq_encoder;

std::vector<int> roundtrip(const std::vector<int>& bits, int n_contexts,
                           const std::vector<int>& ctx_of_bit)
{
    mq_encoder enc;
    std::vector<mq_context> ecx(static_cast<std::size_t>(n_contexts));
    for (std::size_t i = 0; i < bits.size(); ++i)
        enc.encode(ecx[static_cast<std::size_t>(ctx_of_bit[i])], bits[i]);
    const auto bytes = enc.flush();

    std::vector<mq_context> dcx(static_cast<std::size_t>(n_contexts));
    mq_decoder dec{bytes};
    std::vector<int> out(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        out[i] = dec.decode(dcx[static_cast<std::size_t>(ctx_of_bit[i])]);
    return out;
}

TEST(MqCoder, TableHasStandardAnchors)
{
    EXPECT_EQ(j2k::mq_table(0).qe, 0x5601);
    EXPECT_EQ(j2k::mq_table(0).sw, 1);
    EXPECT_EQ(j2k::mq_table(46).qe, 0x5601);
    EXPECT_EQ(j2k::mq_table(46).nmps, 46);  // uniform context is absorbing
    EXPECT_EQ(j2k::mq_table(45).qe, 0x0001);
}

TEST(MqCoder, RoundTripAllZeros)
{
    std::vector<int> bits(1000, 0);
    std::vector<int> ctx(1000, 0);
    EXPECT_EQ(roundtrip(bits, 1, ctx), bits);
}

TEST(MqCoder, RoundTripAllOnes)
{
    std::vector<int> bits(1000, 1);
    std::vector<int> ctx(1000, 0);
    EXPECT_EQ(roundtrip(bits, 1, ctx), bits);
}

TEST(MqCoder, RoundTripAlternating)
{
    std::vector<int> bits(999);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = static_cast<int>(i % 2);
    std::vector<int> ctx(bits.size(), 0);
    EXPECT_EQ(roundtrip(bits, 1, ctx), bits);
}

TEST(MqCoder, RoundTripSingleBit)
{
    for (int b : {0, 1}) {
        std::vector<int> bits{b};
        std::vector<int> ctx{0};
        EXPECT_EQ(roundtrip(bits, 1, ctx), bits);
    }
}

TEST(MqCoder, RoundTripEmpty)
{
    mq_encoder enc;
    const auto bytes = enc.flush();
    // An empty codeword decodes as a (useless but harmless) stream of MPS.
    mq_decoder dec{bytes};
    mq_context cx;
    (void)dec.decode(cx);  // must not crash
}

TEST(MqCoder, CompressesSkewedSource)
{
    // 5% ones: the adaptive coder should get well below 1 bit/symbol.
    std::mt19937 rng{7};
    std::bernoulli_distribution ones{0.05};
    std::vector<int> bits(20'000);
    for (auto& b : bits) b = ones(rng) ? 1 : 0;
    mq_encoder enc;
    mq_context cx;
    for (int b : bits) enc.encode(cx, b);
    const auto bytes = enc.flush();
    // Entropy of p=0.05 is ~0.29 bits/symbol; allow generous margin.
    EXPECT_LT(bytes.size() * 8, bits.size() / 2);

    mq_decoder dec{bytes};
    mq_context dcx;
    for (int b : bits) ASSERT_EQ(dec.decode(dcx), b);
}

TEST(MqCoder, RandomMultiContextRoundTrips)
{
    std::mt19937 rng{42};
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 1 + static_cast<int>(rng() % 5000);
        const int n_ctx = 1 + static_cast<int>(rng() % 19);
        std::vector<int> bits(static_cast<std::size_t>(n));
        std::vector<int> ctx(static_cast<std::size_t>(n));
        std::bernoulli_distribution bit_dist{0.1 + 0.8 * (trial / 20.0)};
        for (int i = 0; i < n; ++i) {
            bits[static_cast<std::size_t>(i)] = bit_dist(rng) ? 1 : 0;
            ctx[static_cast<std::size_t>(i)] = static_cast<int>(rng() % n_ctx);
        }
        ASSERT_EQ(roundtrip(bits, n_ctx, ctx), bits) << "trial " << trial;
    }
}

TEST(MqCoder, StuffedBytesNeverFormMarkers)
{
    // Encode pathological data that maximises 0xFF production pressure.
    std::mt19937 rng{3};
    mq_encoder enc;
    std::vector<mq_context> cxs(4);
    std::vector<int> bits;
    for (int i = 0; i < 50'000; ++i) {
        const int b = static_cast<int>(rng() % 2);
        bits.push_back(b);
        enc.encode(cxs[static_cast<std::size_t>(i) % 4], b);
    }
    const auto bytes = enc.flush();
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        if (bytes[i] == 0xFF) {
            EXPECT_LE(bytes[i + 1], 0x8F) << "marker at " << i;
        }
    }
    std::vector<mq_context> dcx(4);
    mq_decoder dec{bytes};
    for (std::size_t i = 0; i < bits.size(); ++i)
        ASSERT_EQ(dec.decode(dcx[i % 4]), bits[i]);
}

TEST(MqCoder, EncoderReusableAfterFlushAndInit)
{
    mq_encoder enc;
    mq_context cx;
    enc.encode(cx, 1);
    (void)enc.flush();
    enc.init();
    cx.reset();
    for (int i = 0; i < 64; ++i) enc.encode(cx, i & 1);
    const auto bytes = enc.flush();
    mq_decoder dec{bytes};
    mq_context dcx;
    for (int i = 0; i < 64; ++i) ASSERT_EQ(dec.decode(dcx), i & 1);
}

}  // namespace
