// codec/image.hpp — the codec-neutral image currency shared by every layer.
//
// Components are stored as planar 32-bit signed samples so that intermediate
// transform/quantiser values fit without clipping.  This type used to live in
// j2k/ with a hard 1..4 component cap; it is the shared currency of the
// runtime service, the decoded-result cache, and the wire protocol, so it
// moved down a layer when the second codec arrived: multispectral backends
// (CCSDS-123-style) emit dozens of bands, and the structural cap is now
// k_max_components with each backend declaring (and enforcing) its own band
// limit in its capability flags (see codec/backend.hpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace codec {

/// Structural component bound of the container itself.  Chosen to match the
/// one-byte component count of the raw wire encoding (net/protocol.hpp);
/// individual codecs declare tighter limits (J2K: 4, CCSDS-123: bands field).
inline constexpr int k_max_components = 255;

/// One rectangular plane of 32-bit samples.
class plane {
public:
    plane() = default;
    plane(int width, int height, std::int32_t fill = 0)
        : w_{width}, h_{height}, data_(static_cast<std::size_t>(width) * height, fill)
    {
        if (width < 0 || height < 0) throw std::invalid_argument{"plane: negative size"};
    }

    [[nodiscard]] int width() const noexcept { return w_; }
    [[nodiscard]] int height() const noexcept { return h_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    [[nodiscard]] std::int32_t& at(int x, int y)
    {
        return data_[static_cast<std::size_t>(y) * w_ + x];
    }
    [[nodiscard]] std::int32_t at(int x, int y) const
    {
        return data_[static_cast<std::size_t>(y) * w_ + x];
    }

    [[nodiscard]] std::int32_t* row(int y) { return data_.data() + static_cast<std::size_t>(y) * w_; }
    [[nodiscard]] const std::int32_t* row(int y) const
    {
        return data_.data() + static_cast<std::size_t>(y) * w_;
    }

    [[nodiscard]] std::vector<std::int32_t>& samples() noexcept { return data_; }
    [[nodiscard]] const std::vector<std::int32_t>& samples() const noexcept { return data_; }

    [[nodiscard]] bool operator==(const plane&) const = default;

private:
    int w_ = 0;
    int h_ = 0;
    std::vector<std::int32_t> data_;
};

/// A multi-component image (1 = greyscale, 3 = RGB, N = multispectral bands).
class image {
public:
    image() = default;
    image(int width, int height, int components, int bit_depth = 8)
        : w_{width}, h_{height}, depth_{bit_depth}
    {
        if (components < 1 || components > k_max_components)
            throw std::invalid_argument{"image: 1..255 components supported"};
        if (bit_depth < 1 || bit_depth > 16)
            throw std::invalid_argument{"image: 1..16 bit depth supported"};
        // Built in place: no template plane to copy, so the peak is the image.
        comps_.reserve(static_cast<std::size_t>(components));
        for (int c = 0; c < components; ++c) comps_.emplace_back(width, height);
    }

    [[nodiscard]] int width() const noexcept { return w_; }
    [[nodiscard]] int height() const noexcept { return h_; }
    [[nodiscard]] int components() const noexcept { return static_cast<int>(comps_.size()); }
    [[nodiscard]] int bit_depth() const noexcept { return depth_; }

    [[nodiscard]] plane& comp(int c) { return comps_.at(static_cast<std::size_t>(c)); }
    [[nodiscard]] const plane& comp(int c) const { return comps_.at(static_cast<std::size_t>(c)); }

    [[nodiscard]] bool operator==(const image&) const = default;

private:
    int w_ = 0;
    int h_ = 0;
    int depth_ = 8;
    std::vector<plane> comps_;
};

/// Deterministic synthetic test image (smooth gradients + texture + edges),
/// exercising both low- and high-frequency content.  `seed` varies content.
[[nodiscard]] image make_test_image(int width, int height, int components,
                                    int bit_depth = 8, std::uint32_t seed = 1);

/// Peak signal-to-noise ratio between two images (dB); +inf when identical.
[[nodiscard]] double psnr(const image& a, const image& b);

}  // namespace codec
