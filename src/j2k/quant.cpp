#include "quant.hpp"

#include "kernels.hpp"

#include <cmath>
#include <stdexcept>

namespace j2k {

double quant_step(const quant_params& q, band b, int level, wavelet w,
                  int bit_depth) noexcept
{
    if (w == wavelet::w5_3) return 1.0;  // reversible: no quantisation
    const double range = static_cast<double>(1u << bit_depth);
    // Larger synthesis gain ⇒ finer step so reconstruction error stays even.
    return q.base_step * range / band_gain(b, level, w);
}

std::int32_t quantize_value(double v, double step) noexcept
{
    const double a = std::abs(v) / step;
    const auto q = static_cast<std::int32_t>(a);  // floor for non-negative
    return v < 0 ? -q : q;
}

double dequantize_value(std::int32_t q, double step) noexcept
{
    if (q == 0) return 0.0;
    const double m = (std::abs(static_cast<double>(q)) + 0.5) * step;
    return q < 0 ? -m : m;
}

void quantize_buffer(const std::vector<double>& in, std::vector<std::int32_t>& out,
                     double step)
{
    if (step <= 0.0) throw std::invalid_argument{"quantize_buffer: step must be > 0"};
    out.resize(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = quantize_value(in[i], step);
}

void dequantize_buffer(const std::vector<std::int32_t>& in, std::vector<double>& out,
                       double step)
{
    if (step <= 0.0) throw std::invalid_argument{"dequantize_buffer: step must be > 0"};
    out.resize(in.size());
    kernel::dequant(in.data(), out.data(), step, in.size());
}

}  // namespace j2k
