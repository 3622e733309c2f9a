// runtime/hash.hpp — the repo's one FNV-1a implementation, and the
// decoded-result cache's bucket hash.
//
// FNV-1a is the pixel digest of the golden corpus (tests/j2k/test_golden.cpp,
// make_corpus.cpp, the ccsds corpus), which previously each carried their own
// copy.  It is no longer the cache's content address: it mixes one byte per
// step, which made hashing a 281 KiB cube cost ~0.5 ms, and a 64-bit FNV-1a
// collision can be crafted.  The cache keys on `seeded_hash` instead, which
// only picks a bucket — the cache compares the input bytes before it serves
// anything (see docs/RUNTIME.md).
//
// Header-only and j2k-free on purpose: `fnv1a_image` is a template over any
// image-shaped type (width/height/components/bit_depth/comp(c).samples()), so
// runtime_core keeps its no-j2k-dependency invariant while j2k-side tests and
// the corpus tools share the exact same byte-for-byte mixing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>

namespace runtime {

inline constexpr std::uint64_t k_fnv1a_offset = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t k_fnv1a_prime = 0x100000001B3ull;

/// Incremental FNV-1a accumulator.
class fnv1a {
public:
    /// Mix one byte.
    constexpr void byte(std::uint8_t b) noexcept
    {
        h_ = (h_ ^ b) * k_fnv1a_prime;
    }

    /// Mix a byte range.
    constexpr void bytes(std::span<const std::uint8_t> data) noexcept
    {
        for (const std::uint8_t b : data) byte(b);
    }

    /// Mix a 64-bit value as 8 little-endian bytes (the corpus convention).
    constexpr void u64(std::uint64_t v) noexcept
    {
        for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
    }

    [[nodiscard]] constexpr std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = k_fnv1a_offset;
};

/// FNV-1a of a byte range.
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(
    std::span<const std::uint8_t> data) noexcept
{
    fnv1a h;
    h.bytes(data);
    return h.value();
}

/// FNV-1a over an image's geometry and every sample, in the golden-corpus
/// order: width, height, components, bit depth, then each component's samples
/// row-major, every value mixed as 8 little-endian bytes.  Templated so this
/// header needs no j2k dependency; instantiate with j2k::image (or anything
/// with the same accessors).
template <typename Image>
[[nodiscard]] std::uint64_t fnv1a_image(const Image& img) noexcept
{
    fnv1a h;
    h.u64(static_cast<std::uint64_t>(img.width()));
    h.u64(static_cast<std::uint64_t>(img.height()));
    h.u64(static_cast<std::uint64_t>(img.components()));
    h.u64(static_cast<std::uint64_t>(img.bit_depth()));
    for (int c = 0; c < img.components(); ++c)
        for (const std::int32_t v : img.comp(c).samples())
            h.u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    return h.value();
}

/// The decoded-result cache's bucket hash: 8 bytes per step (a multiply and
/// a shift-xor each), finished with the murmur3 64-bit mix.  Seeded once per
/// process, on first use, so that a client cannot aim inputs at one bucket
/// offline.  Not a content address: entries that share a hash are told apart
/// by their bytes.
[[nodiscard]] inline std::uint64_t seeded_hash(std::span<const std::uint8_t> data) noexcept
{
    static const std::uint64_t seed = [] {
        try {
            std::random_device rd;
            return (std::uint64_t{rd()} << 32) ^ rd();
        } catch (...) {
            // No entropy source: the stack address still varies per process.
            const int here = 0;
            return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&here));
        }
    }();
    constexpr std::uint64_t k_mul = 0x9E3779B97F4A7C15ull;
    std::uint64_t h = seed ^ (data.size() * k_mul);
    std::size_t i = 0;
    for (; i + 8 <= data.size(); i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, data.data() + i, 8);
        h = (h ^ w) * k_mul;
        h ^= h >> 29;
    }
    std::uint64_t tail = 0;  // the last 0..7 bytes, zero-padded
    if (i < data.size()) std::memcpy(&tail, data.data() + i, data.size() - i);
    h = (h ^ tail) * k_mul;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    return h ^ (h >> 33);
}

}  // namespace runtime
