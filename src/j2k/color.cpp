#include "color.hpp"

#include "kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace j2k {

namespace {

void require_rgb(const image& img, const char* who)
{
    if (img.components() != 3)
        throw std::invalid_argument{std::string{who} + ": needs exactly 3 components"};
}

}  // namespace

void dc_shift_forward(image& img)
{
    const std::int32_t offset = 1 << (img.bit_depth() - 1);
    for (int c = 0; c < img.components(); ++c)
        for (auto& v : img.comp(c).samples()) v -= offset;
}

void dc_shift_inverse(image& img)
{
    const std::int32_t offset = 1 << (img.bit_depth() - 1);
    const std::int32_t maxv = (1 << img.bit_depth()) - 1;
    for (int c = 0; c < img.components(); ++c)
        for (auto& v : img.comp(c).samples())
            v = std::clamp(v + offset, std::int32_t{0}, maxv);
}

void rct_forward(image& img)
{
    require_rgb(img, "rct_forward");
    auto& r = img.comp(0).samples();
    auto& g = img.comp(1).samples();
    auto& b = img.comp(2).samples();
    for (std::size_t i = 0; i < r.size(); ++i) {
        const std::int32_t R = r[i], G = g[i], B = b[i];
        const std::int32_t Y = (R + 2 * G + B) >> 2;  // floor division
        const std::int32_t U = B - G;
        const std::int32_t V = R - G;
        r[i] = Y;
        g[i] = U;
        b[i] = V;
    }
}

void rct_inverse(image& img)
{
    require_rgb(img, "rct_inverse");
    auto& y = img.comp(0).samples();
    auto& u = img.comp(1).samples();
    auto& v = img.comp(2).samples();
    kernel::rct_inverse(y.data(), u.data(), v.data(), y.size());
}

void ict_forward(image& img)
{
    require_rgb(img, "ict_forward");
    auto& r = img.comp(0).samples();
    auto& g = img.comp(1).samples();
    auto& b = img.comp(2).samples();
    for (std::size_t i = 0; i < r.size(); ++i) {
        const double R = r[i], G = g[i], B = b[i];
        const double Y = 0.299 * R + 0.587 * G + 0.114 * B;
        const double Cb = -0.168736 * R - 0.331264 * G + 0.5 * B;
        const double Cr = 0.5 * R - 0.418688 * G - 0.081312 * B;
        r[i] = static_cast<std::int32_t>(std::lround(Y));
        g[i] = static_cast<std::int32_t>(std::lround(Cb));
        b[i] = static_cast<std::int32_t>(std::lround(Cr));
    }
}

void ict_inverse(image& img)
{
    require_rgb(img, "ict_inverse");
    auto& y = img.comp(0).samples();
    auto& cb = img.comp(1).samples();
    auto& cr = img.comp(2).samples();
    kernel::ict_inverse(y.data(), cb.data(), cr.data(), y.size());
}

}  // namespace j2k
