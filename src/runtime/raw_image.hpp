// runtime/raw_image.hpp — a decoded image in its wire form, the currency the
// decode service caches and answers with.
//
// The layout is the J2NE `raw` result payload (net/protocol.hpp), big-endian:
//
//   u32 width | u32 height | u8 components | u8 bit depth | u16 0
//   planar samples, each plane row-major: 1 byte per sample up to 8 bits,
//   2 bytes (big-endian) above
//
// This file owns it: the net protocol's encode/decode functions forward here.
// The paper's VTA refinement stores and moves image data at its real width,
// serialised into bus words; the service does the same with its results.  A
// decode is packed once, on the worker, and from then on a cache hit, a
// completion and a response frame all share the one packed buffer — a hit's
// response is a single copy of these bytes behind the frame header.  Every
// backend's output already lies in [0, 2^depth − 1] (j2k clamps at its DC
// shift, a CCSDS sample is range-checked as it is decoded), so packing loses
// nothing and unpacking gives back the decoded image exactly.
#pragma once

#include <codec/image.hpp>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace runtime {

/// Header bytes in front of the samples.
inline constexpr std::size_t k_raw_header_size = 12;

/// Packed results at least this large are mapped pages, not heap (see
/// raw_image).  glibc's default mmap threshold.
inline constexpr std::size_t k_raw_mapped_bytes = 128u << 10;

/// Size of `img` in the raw layout: the header plus one byte per sample (two
/// above 8 bits).
[[nodiscard]] std::size_t raw_size(const codec::image& img) noexcept;

/// Write `img` in the raw layout into `out`, which must hold exactly
/// raw_size(img) bytes (std::invalid_argument otherwise).  Samples outside
/// [0, 2^depth − 1] are clamped into it.
void pack_raw(const codec::image& img, std::span<std::uint8_t> out);

/// Parse raw-layout bytes back into an image.  Throws std::runtime_error on a
/// short header, an impossible geometry or a size that does not match it.
[[nodiscard]] codec::image unpack_raw(std::span<const std::uint8_t> in);

/// One image packed into the raw layout; immutable once built, so it is
/// shared by reference between the cache, completions and response frames.
///
/// A packed result of at least k_raw_mapped_bytes gets pages of its own
/// (mmap) instead of heap memory.  It is allocated while the int32 image it
/// is packed from is still live, and outlives that image: from the heap it
/// would sit above the image in the worker's malloc arena, and an arena
/// gives pages back only from its top, so the freed image's pages would stay
/// resident under it.  Smaller results (a 64×64 grey image is 4108 bytes)
/// come from the heap, where they cost no page rounding.
class raw_image {
public:
    explicit raw_image(const codec::image& img);

    /// The whole layout, header first: exactly a `raw` response payload.
    [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept
    {
        return {data_.get(), data_.get_deleter().size};
    }
    [[nodiscard]] std::size_t size() const noexcept { return data_.get_deleter().size; }
    /// A fresh int32 image equal to the one packed.
    [[nodiscard]] codec::image unpack() const { return unpack_raw(bytes()); }

private:
    /// Frees a buffer the way raw_image allocated it, by its size.
    struct release {
        std::size_t size;
        void operator()(std::uint8_t* p) const noexcept;
    };
    std::unique_ptr<std::uint8_t[], release> data_;
};

}  // namespace runtime
