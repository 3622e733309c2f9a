#include "ccsds123.hpp"

#include <codec/backend.hpp>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccsds {

namespace {

// Predictor constants.  Ω is the weight resolution (weights are fixed-point
// with Ω fractional bits); the update step is a sign-LMS ±1 per sample with
// weights clamped to ±2^(Ω+2).  Γ renormalises at 64 samples, the classic
// Rice-coder half-life.
constexpr int k_omega = 6;
constexpr std::int32_t k_weight_clamp = std::int32_t{1} << (k_omega + 2);
constexpr std::uint32_t k_gamma_limit = 64;
constexpr int k_unary_limit = 16;  ///< GPO2 escape threshold (zeros before raw)

// Local sums and central local differences lie in ±4·(2^16 − 1), so the
// weighted sum of up to 15 of them fits int32 exactly.
static_assert(std::int64_t{k_max_pred_bands} * k_weight_clamp * 4 * 65535 <=
              std::numeric_limits<std::int32_t>::max());

[[noreturn]] void bad_stream(const char* what)
{
    throw codec::codestream_error{std::string{"ccsds123: "} + what};
}

// ---------------------------------------------------------------------------
// Bit I/O, MSB-first.

class bit_writer {
public:
    explicit bit_writer(std::vector<std::uint8_t>& out) : out_(out) {}

    void put(std::uint32_t bit)
    {
        acc_ = (acc_ << 1) | (bit & 1u);
        if (++nbits_ == 8) {
            out_.push_back(static_cast<std::uint8_t>(acc_));
            acc_ = 0;
            nbits_ = 0;
        }
    }

    void put_bits(std::uint32_t v, int n)
    {
        for (int i = n - 1; i >= 0; --i) put((v >> i) & 1u);
    }

    void put_zeros(int n)
    {
        for (int i = 0; i < n; ++i) put(0);
    }

    /// Pad the final partial byte with zero bits.
    void flush()
    {
        while (nbits_ != 0) put(0);
    }

private:
    std::vector<std::uint8_t>& out_;
    std::uint32_t acc_ = 0;
    int nbits_ = 0;
};

/// Decode side: a 64-bit MSB-first window over the payload.  refill() tops
/// it up to at least 56 bits — one big-endian 8-byte load while 8 bytes
/// remain, then byte by byte with zero padding past the end — so a whole
/// GPO2 code (at most 32 bits) can be read from peek() and consumed at once.
/// `left_` counts the real bits not yet consumed: consuming past the end
/// throws, at the same code a bit-serial reader would.
class bit_window {
public:
    explicit bit_window(std::span<const std::uint8_t> bytes)
        : p_(bytes.data()), end_(bytes.data() + bytes.size()), left_(bytes.size() * 8)
    {
    }

    void refill()
    {
        if (end_ - p_ >= 8) {
            // Bits past avail_ may already hold the following bytes, at these
            // same positions, so or-ing them in again is harmless.
            std::uint64_t v = 0;
            std::memcpy(&v, p_, sizeof v);
            if constexpr (std::endian::native == std::endian::little)
                v = __builtin_bswap64(v);
            win_ |= v >> avail_;
            p_ += (63 - avail_) >> 3;
            avail_ |= 56;
        } else {
            for (; avail_ <= 56; avail_ += 8)
                if (p_ < end_) win_ |= std::uint64_t{*p_++} << (56 - avail_);
        }
    }

    [[nodiscard]] std::uint64_t peek() const noexcept { return win_; }

    void consume(int n)
    {
        if (static_cast<std::size_t>(n) > left_) bad_stream("truncated codestream");
        win_ <<= n;
        avail_ -= n;
        left_ -= static_cast<std::size_t>(n);
    }

private:
    const std::uint8_t* p_;
    const std::uint8_t* end_;
    std::size_t left_;
    std::uint64_t win_ = 0;
    int avail_ = 0;  ///< bits of win_ already loaded (real or padding)
};

// ---------------------------------------------------------------------------
// Shared predictor state.  Encoder and decoder run the identical recurrence
// over the identical (reconstructed == original) samples, so every quantity
// below evolves in lockstep on both sides.

/// Local sum σ(z,y,x) over already-coded neighbours of the current band,
/// scaled by 4 (range [0, 4*maxval]).  The first sample of a band has no
/// causal neighbour; it is seeded with the band midpoint.  run_prediction
/// reads interior samples (y > 0, 0 < x < w-1) straight from its row
/// pointers; this handles the edges.
std::int32_t local_sum(const std::int32_t* s, int w, int x, int y,
                       neighbor_mode mode, std::int32_t mid)
{
    if (y == 0) {
        if (x == 0) return 4 * mid;
        return 4 * s[x - 1];  // 4*W
    }
    const std::int32_t n = s[(y - 1) * w + x];
    if (mode == neighbor_mode::narrow) return 4 * n;
    const std::int32_t wv = x > 0 ? s[y * w + x - 1] : n;
    const std::int32_t nw = x > 0 ? s[(y - 1) * w + x - 1] : n;
    const std::int32_t ne = x < w - 1 ? s[(y - 1) * w + x + 1] : n;
    return wv + nw + n + ne;
}

/// Per-band Rice-coder counters.
struct rice_counters {
    std::uint32_t gamma = 1;  ///< sample counter
    std::uint64_t accum = 4;  ///< residual magnitude accumulator

    [[nodiscard]] int k() const { return detail::golomb_k(gamma, accum); }

    void update(std::uint32_t mapped)
    {
        accum += mapped;
        if (++gamma == k_gamma_limit) {
            gamma >>= 1;
            accum = (accum + 1) >> 1;
        }
    }
};

/// Per-band prediction weights, fixed-point with Ω fractional bits; band z
/// uses the first min(P, z) of them.
using weights = std::array<std::int32_t, k_max_pred_bands>;

/// 0.875, then geometrically decaying — the CCSDS-123 default init.
weights initial_weights()
{
    weights wt{};
    std::int32_t w = 7 << (k_omega - 3);
    for (auto& wi : wt) {
        wi = w;
        w >>= 3;
    }
    return wt;
}

/// Sign-LMS step: nudge each weight by ±1 toward reducing the error,
/// directionally scaled by the sign of that band's local difference.
/// Branch-free: sign(err) is 0 when err == 0, so the weights stay put, and a
/// negative difference flips it through its sign mask.
void update_weights(weights& wt, std::int32_t err,
                    const std::int32_t* const* cd_planes, int pb, std::size_t idx)
{
    const std::int32_t step = (err > 0) - (err < 0);
    for (int i = 0; i < pb; ++i) {
        const std::int32_t neg = cd_planes[i][idx] >> 31;  // -1 if d < 0
        auto& wi = wt[static_cast<std::size_t>(i)];
        wi = std::min(std::max(wi + ((step ^ neg) - neg), -k_weight_clamp), k_weight_clamp);
    }
}

/// Predicted sample value from the local sum and the weighted previous-band
/// central local differences.  Pure integer, clamped to the sample range.
std::int32_t predict(std::int32_t sigma, const weights& wt,
                     const std::int32_t* const* cd_planes, int pb,
                     std::size_t idx, std::int32_t maxval)
{
    std::int32_t acc = 0;
    for (int i = 0; i < pb; ++i)
        acc += wt[static_cast<std::size_t>(i)] * cd_planes[i][idx];
    // acc has Ω fractional bits; >> on a negative value is arithmetic
    // (floor), which both sides compute identically.
    const std::int32_t t = (acc >> k_omega) + sigma;
    return std::clamp(t >> 2, 0, maxval);
}

// ---------------------------------------------------------------------------
// Residual mapping: bijection between e = s - ŝ (range [-ŝ, maxval-ŝ]) and
// m ∈ [0, maxval].  θ = min(ŝ, maxval-ŝ) bounds the two-sided zone; beyond
// it only one sign is possible, so the sign bit is dropped — closed form,
// O(1), no data-dependent loops for hostile inputs to inflate.

std::uint32_t map_residual(std::int32_t s, std::int32_t shat, std::int32_t maxval)
{
    const std::int32_t theta = std::min(shat, maxval - shat);
    const std::int32_t e = s - shat;
    const std::int32_t mag = e < 0 ? -e : e;
    if (mag <= theta)
        return e >= 0 ? static_cast<std::uint32_t>(2 * e)
                      : static_cast<std::uint32_t>(-2 * e - 1);
    return static_cast<std::uint32_t>(theta + mag);
}

std::int32_t unmap_residual(std::uint32_t m, std::int32_t shat, std::int32_t maxval)
{
    const std::int32_t theta = std::min(shat, maxval - shat);
    const auto mi = static_cast<std::int32_t>(m);
    // Two-sided zone: even m → m/2, odd m → -(m+1)/2; the parity mask
    // negates through (x ^ mask) - mask.
    const std::int32_t odd = -(mi & 1);
    const std::int32_t inner = (((mi + 1) >> 1) ^ odd) - odd;
    // Beyond it the sign points away from the nearer range end.
    const std::int32_t down = -static_cast<std::int32_t>(shat > maxval - shat);
    const std::int32_t outer = ((mi - theta) ^ down) - down;
    const std::int32_t two_sided = -static_cast<std::int32_t>(mi <= 2 * theta);
    return shat + ((inner & two_sided) | (outer & ~two_sided));
}

// ---------------------------------------------------------------------------
// Entropy layer: unary-limited Golomb-power-of-2.

void gpo2_encode(bit_writer& bw, std::uint32_t m, int k, int depth)
{
    const std::uint32_t q = m >> k;
    if (q < static_cast<std::uint32_t>(k_unary_limit)) {
        bw.put_zeros(static_cast<int>(q));
        bw.put(1);
        if (k > 0) bw.put_bits(m & ((1u << k) - 1u), k);
    } else {
        bw.put_zeros(k_unary_limit);
        bw.put_bits(m, depth);
    }
}

std::uint32_t gpo2_decode(bit_window& br, int k, int depth)
{
    br.refill();
    const std::uint64_t win = br.peek();
    // Unary prefix: leading zeros, capped at the escape length.
    const int q = std::countl_zero(win | (std::uint64_t{1} << (63 - k_unary_limit)));
    if (q == k_unary_limit) {
        br.consume(k_unary_limit + depth);
        return static_cast<std::uint32_t>((win << k_unary_limit) >> (64 - depth));
    }
    br.consume(q + 1 + k);
    // The stop bit and the k remainder bits below it: 2^k + remainder.
    const auto tail = static_cast<std::uint32_t>((win << q) >> (63 - k));
    return (static_cast<std::uint32_t>(q) << k) + tail - (1u << k);
}

// ---------------------------------------------------------------------------
// Header.

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v >> 24));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_u32(const std::uint8_t* p)
{
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::uint16_t get_u16(const std::uint8_t* p)
{
    return static_cast<std::uint16_t>((std::uint32_t{p[0]} << 8) | p[1]);
}

/// The rolling window of previous-band central local differences.  Backed by
/// the caller's memory resource when one is provided (this is the codec's
/// only decode scratch beyond the output image itself).
struct cd_window {
    explicit cd_window(std::pmr::memory_resource* mr)
        : planes(mr != nullptr ? mr : std::pmr::get_default_resource())
    {
    }

    std::pmr::vector<std::pmr::vector<std::int32_t>> planes;
    std::vector<std::int32_t*> order;  ///< order[0] = band z-1, [1] = z-2, ...

    void init(int window, std::size_t plane_samples)
    {
        planes.reserve(static_cast<std::size_t>(window));
        for (int i = 0; i < window; ++i) {
            planes.emplace_back(plane_samples, std::int32_t{0});
        }
        order.resize(static_cast<std::size_t>(window));
        for (int i = 0; i < window; ++i) order[static_cast<std::size_t>(i)] = planes[static_cast<std::size_t>(i)].data();
    }

    /// After finishing a band, its cd plane (order.back(), just filled as the
    /// "current" scratch) becomes band z-1 for the next band.
    void rotate()
    {
        if (order.empty()) return;
        std::int32_t* newest = order.back();
        for (std::size_t i = order.size() - 1; i > 0; --i) order[i] = order[i - 1];
        order[0] = newest;
    }

    /// Plane to record the current band's local differences into.
    [[nodiscard]] std::int32_t* current() { return order.empty() ? nullptr : order.back(); }
};

struct geometry {
    int width, height, bands, depth, pred_bands;
    neighbor_mode mode;
};

/// One coded sample: its value and its mapped residual.
struct coded {
    std::int32_t sample;
    std::uint32_t mapped;
};

/// Core codec loop, shared verbatim between encode and decode: one template
/// over the per-sample entropy step so the prediction recurrence cannot
/// diverge between the two sides.  `sample_op(shat, k, cur) -> coded` codes
/// one sample with Golomb parameter k and returns the (original ==
/// reconstructed) sample and its mapped residual; `cur` is the sample's value
/// in `img` before it is coded (the source sample when encoding).
template <typename SampleOp>
void run_prediction(const geometry& g, codec::image& img, cd_window& cdw,
                    SampleOp&& sample_op)
{
    const int w = g.width;
    const int h = g.height;
    const auto maxval =
        static_cast<std::int32_t>((std::uint32_t{1} << g.depth) - 1);
    const std::int32_t mid = (maxval + 1) / 2;
    const int window = std::min(g.pred_bands, g.bands - 1);
    const bool narrow = g.mode == neighbor_mode::narrow;

    for (int z = 0; z < g.bands; ++z) {
        weights wt = initial_weights();
        rice_counters rc;
        const int pb = std::min({g.pred_bands, z, window});
        std::int32_t* s = img.comp(z).samples().data();
        std::int32_t* cd_cur = cdw.current();
        const std::int32_t* const* prev = cdw.order.data();
        for (int y = 0; y < h; ++y) {
            const std::size_t row = static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
            const std::int32_t* cur = s + row;
            const std::int32_t* up = y > 0 ? cur - w : cur;
            for (int x = 0; x < w; ++x) {
                const std::size_t idx = row + static_cast<std::size_t>(x);
                const std::int32_t sigma =
                    y == 0 || x == 0 || x == w - 1
                        ? local_sum(s, w, x, y, g.mode, mid)
                    : narrow ? 4 * up[x]
                             : cur[x - 1] + up[x - 1] + up[x] + up[x + 1];
                const std::int32_t shat = predict(sigma, wt, prev, pb, idx, maxval);
                const coded c = sample_op(shat, rc.k(), s[idx]);
                rc.update(c.mapped);
                s[idx] = c.sample;
                if (cd_cur != nullptr) cd_cur[idx] = 4 * c.sample - sigma;
                update_weights(wt, c.sample - shat, prev, pb, idx);
            }
        }
        cdw.rotate();
    }
}

geometry validate_geometry(int w, int h, int bands, int depth, int pred_bands,
                           int mode_raw, bool decoding)
{
    const auto fail = [&](const char* what) {
        if (decoding) bad_stream(what);
        throw std::invalid_argument{std::string{"ccsds123: "} + what};
    };
    if (w < 1 || w > k_max_dimension || h < 1 || h > k_max_dimension)
        fail("dimensions out of range");
    if (bands < 1 || bands > k_max_bands) fail("band count out of range");
    if (depth < 2 || depth > 16) fail("bit depth out of range (2..16)");
    if (pred_bands < 0 || pred_bands > k_max_pred_bands)
        fail("prediction band count out of range");
    if (mode_raw != 0 && mode_raw != 1) fail("unknown neighbor mode");
    const std::uint64_t total = std::uint64_t{static_cast<std::uint32_t>(w)} *
                                static_cast<std::uint32_t>(h) *
                                static_cast<std::uint32_t>(bands);
    if (total > k_max_total_samples) fail("image exceeds total sample cap");
    return geometry{w, h, bands, depth, pred_bands,
                    static_cast<neighbor_mode>(mode_raw)};
}

}  // namespace

stream_info read_header(std::span<const std::uint8_t> cs)
{
    if (cs.size() < k_header_size) bad_stream("stream shorter than header");
    const std::uint8_t* p = cs.data();
    if (get_u32(p) != k_magic) bad_stream("bad magic");
    if (p[4] != k_version) bad_stream("unsupported version");
    const int mode_raw = p[5];
    const int bands = get_u16(p + 6);
    const auto w64 = get_u32(p + 8);
    const auto h64 = get_u32(p + 12);
    if (w64 > static_cast<std::uint32_t>(k_max_dimension) ||
        h64 > static_cast<std::uint32_t>(k_max_dimension))
        bad_stream("dimensions out of range");
    const int depth = p[16];
    const int pred_bands = p[17];
    if (get_u16(p + 18) != 0) bad_stream("reserved header bytes nonzero");
    const geometry g =
        validate_geometry(static_cast<int>(w64), static_cast<int>(h64), bands,
                          depth, pred_bands, mode_raw, /*decoding=*/true);
    return stream_info{g.width, g.height, g.bands, g.depth, g.pred_bands, g.mode};
}

std::vector<std::uint8_t> encode(const codec::image& img, const params& p)
{
    const geometry g = validate_geometry(
        img.width(), img.height(), img.components(), img.bit_depth(),
        p.pred_bands, static_cast<int>(p.mode), /*decoding=*/false);
    const auto maxval =
        static_cast<std::int32_t>((std::uint32_t{1} << g.depth) - 1);

    // The predictor must see the values the decoder will reconstruct, so
    // clamp out-of-range samples up front on a working copy.
    codec::image work{g.width, g.height, g.bands, g.depth};
    for (int c = 0; c < g.bands; ++c) {
        const auto& src = img.comp(c).samples();
        auto& dst = work.comp(c).samples();
        for (std::size_t i = 0; i < src.size(); ++i)
            dst[i] = std::clamp(src[i], std::int32_t{0}, maxval);
    }

    std::vector<std::uint8_t> out;
    out.reserve(k_header_size +
                static_cast<std::size_t>(g.width) * static_cast<std::size_t>(g.height) *
                    static_cast<std::size_t>(g.bands) / 2);
    put_u32(out, k_magic);
    out.push_back(k_version);
    out.push_back(static_cast<std::uint8_t>(g.mode));
    put_u16(out, static_cast<std::uint16_t>(g.bands));
    put_u32(out, static_cast<std::uint32_t>(g.width));
    put_u32(out, static_cast<std::uint32_t>(g.height));
    out.push_back(static_cast<std::uint8_t>(g.depth));
    out.push_back(static_cast<std::uint8_t>(g.pred_bands));
    put_u16(out, 0);

    bit_writer bw{out};
    cd_window cdw{nullptr};
    const int window = std::min(g.pred_bands, g.bands - 1);
    if (window > 0)
        cdw.init(window + 1, static_cast<std::size_t>(g.width) *
                                 static_cast<std::size_t>(g.height));

    // run_prediction writes samples back into the image it is handed; feed it
    // the clamped copy and have the op return the true (clamped) sample after
    // emitting its mapped residual.
    run_prediction(g, work, cdw, [&](std::int32_t shat, int k, std::int32_t sv) {
        const std::uint32_t m = map_residual(sv, shat, maxval);
        gpo2_encode(bw, m, k, g.depth);
        return coded{sv, m};
    });
    bw.flush();
    return out;
}

codec::image decode(std::span<const std::uint8_t> cs, std::pmr::memory_resource* mr)
{
    const stream_info si = read_header(cs);
    const geometry g{si.width, si.height, si.bands, si.bit_depth,
                     si.pred_bands, si.mode};

    const auto maxval =
        static_cast<std::int32_t>((std::uint32_t{1} << g.depth) - 1);
    codec::image img{g.width, g.height, g.bands, g.depth};
    bit_window br{cs.subspan(k_header_size)};
    cd_window cdw{mr};
    const int window = std::min(g.pred_bands, g.bands - 1);
    if (window > 0)
        cdw.init(window + 1, static_cast<std::size_t>(g.width) *
                                 static_cast<std::size_t>(g.height));

    run_prediction(g, img, cdw, [&](std::int32_t shat, int k, std::int32_t /*cur*/) {
        const std::uint32_t m = gpo2_decode(br, k, g.depth);
        if (m > static_cast<std::uint32_t>(maxval))
            bad_stream("mapped residual exceeds sample range");
        return coded{unmap_residual(m, shat, maxval), m};
    });
    return img;
}

namespace {

class ccsds_backend final : public codec::backend {
public:
    [[nodiscard]] std::string_view name() const noexcept override
    {
        return "ccsds123";
    }
    [[nodiscard]] std::uint8_t wire_id() const noexcept override
    {
        return k_codec_wire_id;
    }

    [[nodiscard]] codec::capabilities caps() const noexcept override
    {
        codec::capabilities c;  // lossless: no reduction/layers/progressive
        c.max_components = k_max_bands;
        return c;
    }

    [[nodiscard]] codec::image decode(std::span<const std::uint8_t> bytes,
                                      const codec::decode_request& req,
                                      codec::stage_profile*) const override
    {
        if (req.discard_levels != 0 || req.max_quality_layers != 0 ||
            req.max_passes != 0)
            bad_stream("ccsds123 is lossless: reduction options unsupported");
        return ccsds::decode(bytes);
    }
};

}  // namespace

const codec::backend& ensure_backend_registered()
{
    static const std::shared_ptr<const ccsds_backend> instance = [] {
        auto b = std::make_shared<const ccsds_backend>();
        codec::register_backend(b);
        return b;
    }();
    return *instance;
}

}  // namespace ccsds
