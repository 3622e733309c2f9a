#include "raw_image.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <vector>

#include <sys/mman.h>

namespace runtime {

namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) noexcept
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

}  // namespace

void raw_image::release::operator()(std::uint8_t* p) const noexcept
{
    if (size >= k_raw_mapped_bytes)
        ::munmap(p, size);
    else
        delete[] p;
}

raw_image::raw_image(const codec::image& img) : data_{nullptr, release{raw_size(img)}}
{
    const std::size_t n = size();
    if (n >= k_raw_mapped_bytes) {
        void* m = ::mmap(nullptr, n, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
        if (m == MAP_FAILED) throw std::bad_alloc{};
        data_.reset(static_cast<std::uint8_t*>(m));
    } else {
        data_.reset(new std::uint8_t[n]);
    }
    pack_raw(img, {data_.get(), n});
}

std::size_t raw_size(const codec::image& img) noexcept
{
    const std::size_t samples = static_cast<std::size_t>(img.width()) * img.height() *
                                img.components();
    return k_raw_header_size + samples * (img.bit_depth() > 8 ? 2 : 1);
}

void pack_raw(const codec::image& img, std::span<std::uint8_t> out)
{
    if (out.size() != raw_size(img))
        throw std::invalid_argument{"raw image: output buffer size mismatch"};
    const std::int32_t maxv = (1 << img.bit_depth()) - 1;
    const bool wide = img.bit_depth() > 8;
    put_u32(out.data(), static_cast<std::uint32_t>(img.width()));
    put_u32(out.data() + 4, static_cast<std::uint32_t>(img.height()));
    out[8] = static_cast<std::uint8_t>(img.components());
    out[9] = static_cast<std::uint8_t>(img.bit_depth());
    out[10] = 0;
    out[11] = 0;
    // Planes are row-major and contiguous: one clamp-and-store pass each.
    std::uint8_t* p = out.data() + k_raw_header_size;
    for (int c = 0; c < img.components(); ++c) {
        const std::vector<std::int32_t>& src = img.comp(c).samples();
        if (wide) {
            for (const std::int32_t v : src) {
                const std::int32_t u = std::clamp(v, 0, maxv);
                p[0] = static_cast<std::uint8_t>(u >> 8);
                p[1] = static_cast<std::uint8_t>(u);
                p += 2;
            }
        } else {
            p = std::transform(src.begin(), src.end(), p, [maxv](std::int32_t v) {
                return static_cast<std::uint8_t>(std::clamp(v, 0, maxv));
            });
        }
    }
}

codec::image unpack_raw(std::span<const std::uint8_t> in)
{
    if (in.size() < k_raw_header_size)
        throw std::runtime_error{"raw image: short header"};
    const int w = static_cast<int>(get_u32(in.data()));
    const int h = static_cast<int>(get_u32(in.data() + 4));
    const int comps = in[8];
    const int depth = in[9];
    // comps is a u8, so the structural ceiling is codec::k_max_components
    // (255) — multispectral payloads carry every band the container allows.
    if (w <= 0 || h <= 0 || comps < 1 || depth < 1 || depth > 16)
        throw std::runtime_error{"raw image: bad geometry"};
    const bool wide = depth > 8;
    // Divide rather than multiply: w·h·comps·2 can exceed 64 bits.
    const std::size_t plane = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    const std::size_t per_pixel = static_cast<std::size_t>(comps) * (wide ? 2 : 1);
    const std::size_t body = in.size() - k_raw_header_size;
    if (body % per_pixel != 0 || body / per_pixel != plane)
        throw std::runtime_error{"raw image: size mismatch"};
    codec::image img{w, h, comps, depth};
    const std::uint8_t* p = in.data() + k_raw_header_size;
    for (int c = 0; c < comps; ++c) {
        std::int32_t* dst = img.comp(c).samples().data();
        if (wide) {
            for (std::size_t i = 0; i < plane; ++i, p += 2)
                dst[i] = (std::int32_t{p[0]} << 8) | p[1];
        } else {
            std::copy(p, p + plane, dst);
            p += plane;
        }
    }
    return img;
}

}  // namespace runtime
