#include "tier1.hpp"

#include "codestream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace j2k {

namespace {

// Context numbering (indices into the per-block context array).
constexpr int k_ctx_zc_base = 0;   // 0..8  zero coding
constexpr int k_ctx_mr_base = 14;  // 14..16 magnitude refinement
constexpr int k_ctx_rl = 17;       // run-length
constexpr int k_ctx_uni = 18;      // uniform
constexpr int k_num_ctx = 19;

// Flag word bits (layout in tier1.hpp).  The neighbour byte holds the four
// direct neighbours in its low nibble; each direct neighbour's sign bit sits
// exactly 8 bits above its significance bit.
constexpr std::uint16_t f_n = 1u << 0;
constexpr std::uint16_t f_w = 1u << 1;
constexpr std::uint16_t f_e = 1u << 2;
constexpr std::uint16_t f_s = 1u << 3;
constexpr std::uint16_t f_nw = 1u << 4;
constexpr std::uint16_t f_ne = 1u << 5;
constexpr std::uint16_t f_sw = 1u << 6;
constexpr std::uint16_t f_se = 1u << 7;
constexpr std::uint16_t f_neighbours = 0xFF;
constexpr std::uint16_t f_sig = 1u << 12;
constexpr std::uint16_t f_visit = 1u << 13;
constexpr std::uint16_t f_refined = 1u << 14;
constexpr std::uint16_t f_neg = 1u << 15;

/// Zero-coding context from neighbour significance counts, per Table D.1.
/// h/v = number of significant horizontal/vertical neighbours (0..2),
/// d = significant diagonals (0..4).
constexpr int zc_context(int h, int v, int d, band orient) noexcept
{
    if (orient == band::hl) std::swap(h, v);  // HL: transpose the LL/LH table
    if (orient == band::hh) {
        const int hv = h + v;
        if (d >= 3) return 8;
        if (d == 2) return hv >= 1 ? 7 : 6;
        if (d == 1) return hv >= 2 ? 5 : (hv == 1 ? 4 : 3);
        return hv >= 2 ? 2 : (hv == 1 ? 1 : 0);
    }
    // LL / LH (and transposed HL)
    if (h == 2) return 8;
    if (h == 1) {
        if (v >= 1) return 7;
        return d >= 1 ? 6 : 5;
    }
    if (v == 2) return 4;
    if (v == 1) return 3;
    return d >= 2 ? 2 : (d == 1 ? 1 : 0);
}

using zc_table = std::array<std::uint8_t, 256>;

/// ZC context for every value of the neighbour byte.
constexpr zc_table make_zc_table(band orient)
{
    zc_table t{};
    for (unsigned nb = 0; nb < 256; ++nb) {
        const int h = ((nb & f_w) ? 1 : 0) + ((nb & f_e) ? 1 : 0);
        const int v = ((nb & f_n) ? 1 : 0) + ((nb & f_s) ? 1 : 0);
        const int d = std::popcount(nb & 0xF0u);
        t[nb] = static_cast<std::uint8_t>(k_ctx_zc_base + zc_context(h, v, d, orient));
    }
    return t;
}

constexpr zc_table k_zc_ll_lh = make_zc_table(band::ll);
constexpr zc_table k_zc_hl = make_zc_table(band::hl);
constexpr zc_table k_zc_hh = make_zc_table(band::hh);

const zc_table& zc_table_for(band orient) noexcept
{
    if (orient == band::hl) return k_zc_hl;
    if (orient == band::hh) return k_zc_hh;
    return k_zc_ll_lh;
}

/// Sign-coding context + XOR bit, per Table D.3.  hc/vc ∈ {-1,0,1} are the
/// clamped neighbour sign contributions.
struct sc_entry {
    std::uint8_t ctx;
    std::uint8_t xor_bit;
};
constexpr sc_entry sc_context(int hc, int vc) noexcept
{
    if (hc == 1) {
        if (vc == 1) return {13, 0};
        if (vc == 0) return {12, 0};
        return {11, 0};
    }
    if (hc == 0) {
        if (vc == 1) return {10, 0};
        if (vc == 0) return {9, 0};
        return {10, 1};
    }
    if (vc == 1) return {11, 1};
    if (vc == 0) return {12, 1};
    return {13, 1};
}

/// SC entry for every combination of the direct neighbours' significance
/// nibble (N W E S, bits 0..3) and sign nibble (bits 4..7).
constexpr std::array<sc_entry, 256> make_sc_table()
{
    std::array<sc_entry, 256> t{};
    for (unsigned idx = 0; idx < 256; ++idx) {
        const auto contrib = [idx](unsigned bit) {
            if (!(idx & bit)) return 0;
            return (idx & (bit << 4)) ? -1 : 1;
        };
        t[idx] = sc_context(std::clamp(contrib(f_w) + contrib(f_e), -1, 1),
                            std::clamp(contrib(f_n) + contrib(f_s), -1, 1));
    }
    return t;
}

constexpr auto k_sc = make_sc_table();

[[nodiscard]] std::pmr::memory_resource* mr_of(std::pmr::memory_resource* mr) noexcept
{
    return mr ? mr : std::pmr::get_default_resource();
}

/// Coder state of one block shared by encoder and decoder: one flag word per
/// sample in stripe-column order — the four words of a stripe column next to
/// each other, so one 64-bit load reads the whole column — with a padding
/// column on either side of every stripe, plus the MQ contexts.  Magnitudes
/// live outside (the encoder's |coeff|, the decoder's accumulator), addressed
/// row-major and unpadded.
struct block_state {
    int w;
    int h;
    int stripe;  ///< flag words per stripe: 4·(w + 2)
    const zc_table* zc;
    std::pmr::vector<std::uint16_t> flags;
    /// Takes the neighbour updates of the first stripe's top row and of a
    /// full last stripe's bottom row, which have no stripe to go to.
    std::array<std::uint16_t, 9> sink{};
    std::array<mq_context, k_num_ctx> cx{};

    block_state(int width, int height, band orient, std::pmr::memory_resource* mr = nullptr)
        : w{width}, h{height}, stripe{4 * (width + 2)}, zc{&zc_table_for(orient)},
          flags(static_cast<std::size_t>(4 * (width + 2)) *
                    static_cast<std::size_t>((height + 3) / 4),
                std::uint16_t{0}, mr_of(mr))
    {
        for (auto& c : cx) c.reset();
        cx[k_ctx_zc_base + 0].reset(4, 0);  // ZC context 0 starts at state 4
        cx[k_ctx_rl].reset(3, 0);           // run-length starts at state 3
        cx[k_ctx_uni].reset(46, 0);         // uniform: non-adaptive state
    }

    [[nodiscard]] std::uint16_t& flag(int x, int y) noexcept
    {
        return flags[static_cast<std::size_t>(y / 4) * static_cast<std::size_t>(stripe) +
                     static_cast<std::size_t>(4 * (x + 1) + y % 4)];
    }

    /// out[y·stride + x] = ±mag[y·w + x], the sign taken from NEG without a
    /// branch.  Row y's flag words sit 4 apart, from sample (0, y) on.
    void write_signed(const std::uint32_t* mag, std::int32_t* out,
                      std::ptrdiff_t stride) noexcept
    {
        static_assert(f_neg == 0x8000, "NEG must be the flag word's top bit");
        for (int y = 0; y < h; ++y, mag += w, out += stride) {
            const std::uint16_t* f = &flag(0, y);
            for (int x = 0; x < w; ++x, f += 4) {
                const std::int32_t neg = -static_cast<std::int32_t>(*f >> 15);  // 0 or -1
                out[x] = (static_cast<std::int32_t>(mag[x]) ^ neg) - neg;
            }
        }
    }
};

struct pass_ref {
    int plane;
    pass_kind kind;
};

/// Pass `i` of the canonical sequence for `num_planes` magnitude planes: the
/// MSB plane gets only a cleanup pass, every other plane SPP, MRP, CUP.
[[nodiscard]] constexpr pass_ref pass_at(int num_planes, int i) noexcept
{
    if (i == 0) return {num_planes - 1, pass_kind::cleanup};
    return {num_planes - 2 - (i - 1) / 3, static_cast<pass_kind>((i - 1) % 3)};
}

[[nodiscard]] constexpr int pass_total(int num_planes) noexcept
{
    return num_planes == 0 ? 0 : 3 * num_planes - 2;
}

/// One coding pass over a block, direction-independent.  `IO` supplies one
/// primitive: `int bit(mq_context&, int actual)` — the encoder codes `actual`
/// and echoes it; the decoder ignores `actual` and returns the decoded
/// decision.  Both sides therefore execute identical control flow over
/// identical state.  `IO::counts` compiles the visited-sample count (and the
/// IO's decision count) in for tier1_stats, or out.
///
/// A pass_coder lives in a local of engine::run for the length of one pass
/// and holds by value everything the pass reads — geometry, table and array
/// pointers, and the IO with the MQ registers.  GCC 12 does not inline
/// become_significant, so the local stays in the stack frame; a variant that
/// forced the MQ registers into machine registers (become_significant
/// always inlined, the IO passed down by reference) measured no clear gain.
///
/// VISIT is cleared lazily: the cleanup pass clears it on every column it
/// walks, so each plane's significance pass starts with VISIT clear and no
/// plane-wide reset is needed.  Within a plane, SIG && VISIT marks a sample
/// that became significant in this plane's significance pass — exactly the
/// samples refinement must skip.
template <typename IO>
struct pass_coder {
    int w;
    int h;
    int stripe;             ///< flag words per stripe
    std::uint16_t* flags;   ///< flag word of sample (0, 0)
    const zc_table& zc;
    mq_context* cx;
    std::uint32_t* mag;
    IO io;
    int plane;
    std::uint16_t* sink;    ///< block_state::sink, at its middle word
    std::uint64_t visited = 0;  ///< samples visited (IO::counts only)

    void significance()
    {
        for_each_column([&](std::uint16_t* col, int x, int sy, int rows, std::uint64_t cw) {
            // No sample of the column has a significant neighbour.
            if ((cw & lanes(f_neighbours)) == 0) return;
            for (int dy = 0; dy < rows; ++dy) {
                std::uint16_t* f = col + dy;
                const std::uint16_t fv = *f;
                if ((fv & f_sig) || !(fv & f_neighbours)) continue;
                count(1);
                *f = static_cast<std::uint16_t>(fv | f_visit);
                const std::size_t i = index(x, sy + dy);
                if (io.bit(cx[zc[fv & f_neighbours]], actual_bit(i)))
                    become_significant(f, i, sy, dy);
            }
        });
    }

    void refinement()
    {
        for_each_column([&](std::uint16_t* col, int x, int sy, int, std::uint64_t cw) {
            // Rows significant before this plane (SIG without VISIT).
            unsigned m = row_mask((cw >> 12) & ~(cw >> 13));
            count(static_cast<unsigned>(std::popcount(m)));
            for (; m != 0; m &= m - 1) {
                const int dy = std::countr_zero(m);
                std::uint16_t* f = col + dy;
                const std::uint16_t fv = *f;
                const int ctx = (fv & f_refined)      ? k_ctx_mr_base + 2
                                : (fv & f_neighbours) ? k_ctx_mr_base + 1
                                                      : k_ctx_mr_base;
                const std::size_t i = index(x, sy + dy);
                const int bit = io.bit(cx[ctx], actual_bit(i));
                if constexpr (IO::is_decoder) mag[i] |= static_cast<std::uint32_t>(bit) << plane;
                *f = static_cast<std::uint16_t>(fv | f_refined);
            }
        });
    }

    void cleanup()
    {
        for_each_column([&](std::uint16_t* col, int x, int sy, int rows, std::uint64_t cw) {
            unsigned m;  // rows to code: neither significant nor visited
            if (rows == 4 && (cw & lanes(f_neighbours | f_sig | f_visit)) == 0) {
                // Run-length mode: one decision covers the whole column.
                count(1);
                const int actual_pos = first_one_in_column(x, sy);
                if (io.bit(cx[k_ctx_rl], actual_pos < 4 ? 1 : 0) == 0) return;
                // Position of the first 1 bit: two uniform decisions.
                int pos = io.bit(cx[k_ctx_uni], (actual_pos >> 1) & 1) << 1;
                pos |= io.bit(cx[k_ctx_uni], actual_pos & 1);
                become_significant(col + pos, index(x, sy + pos), sy, pos);
                m = (0xEu << pos) & 0xFu;
            } else {
                m = row_mask(~((cw >> 12) | (cw >> 13))) & ((1u << rows) - 1);
                // The plane's last pass: clear VISIT on the whole column.
                store(col, cw & ~lanes(f_visit));
            }
            count(static_cast<unsigned>(std::popcount(m)));
            // Turning significant changes the neighbour bits of the rows
            // below, never their SIG or VISIT, so `m` stays exact.
            for (; m != 0; m &= m - 1) {
                const int dy = std::countr_zero(m);
                std::uint16_t* f = col + dy;
                const std::size_t i = index(x, sy + dy);
                if (io.bit(cx[zc[*f & f_neighbours]], actual_bit(i)))
                    become_significant(f, i, sy, dy);
            }
        });
    }

private:
    void count(unsigned n) noexcept
    {
        if constexpr (IO::counts) visited += n;
    }

    /// `v` in each of a column word's four 16-bit lanes.
    static constexpr std::uint64_t lanes(std::uint16_t v) noexcept
    {
        return v * 0x0001000100010001ull;
    }

    /// Bit 0 of each lane of `v`, gathered into bits 0..3 (bit dy = row dy):
    /// the multiply moves lane k's bit to bit 48 + k, and no two partial
    /// products meet below bit 64.
    static unsigned row_mask(std::uint64_t v) noexcept
    {
        return static_cast<unsigned>(((v & lanes(1)) * 0x0001000200040008ull) >> 48);
    }

    /// The four flag words of the stripe column at `col` as one value, row
    /// dy in lane dy.
    static std::uint64_t load(const std::uint16_t* col) noexcept
    {
        std::uint64_t v;
        std::memcpy(&v, col, sizeof v);
        return v;
    }

    static void store(std::uint16_t* col, std::uint64_t v) noexcept
    {
        std::memcpy(col, &v, sizeof v);
    }

    /// Calls fn(col, x, sy, rows, cw) for every stripe column in coding
    /// order: `col` is the flag word of its top sample, `rows` its height (4,
    /// less in a block's last stripe) and `cw` its four flag words.  Lanes
    /// past `rows` exist but are never coded: they can hold neighbour bits,
    /// never SIG, VISIT or REFINED.
    template <typename Fn>
    void for_each_column(Fn&& fn)
    {
        for (int sy = 0; sy < h; sy += 4) {
            const int rows = std::min(4, h - sy);
            std::uint16_t* col = flags + (sy / 4) * stripe;
            for (int x = 0; x < w; ++x, col += 4) fn(col, x, sy, rows, load(col));
        }
    }

    [[nodiscard]] int actual_bit(std::size_t i) const noexcept
    {
        if constexpr (IO::is_decoder) return 0;
        return static_cast<int>((mag[i] >> plane) & 1u);
    }

    /// Code the sign of the sample at `f` (magnitude index `i`, row `dy` of
    /// the stripe at `sy`), which has just turned significant, and publish
    /// its significance and sign into the flag words of its eight neighbours.
    void become_significant(std::uint16_t* f, std::size_t i, int sy, int dy)
    {
        const std::uint16_t fv = *f;
        const sc_entry sc = k_sc[(fv & 0x0Fu) | ((fv >> 4) & 0xF0u)];
        unsigned neg;
        if constexpr (IO::is_decoder) {
            neg = static_cast<unsigned>(io.bit(cx[sc.ctx], 0) ^ sc.xor_bit);
            mag[i] |= 1u << plane;
        } else {
            neg = (fv & f_neg) ? 1u : 0u;
            (void)io.bit(cx[sc.ctx], static_cast<int>(neg ^ sc.xor_bit));
        }
        *f = static_cast<std::uint16_t>(fv | f_sig | (neg ? f_neg : 0));
        // Direct neighbours learn significance and sign, diagonals only
        // significance.  The rows above and below may sit in the
        // neighbouring stripe, 4 words to a column.
        const auto direct = [neg](std::uint16_t bit) {
            return static_cast<std::uint16_t>(bit | ((bit * neg) << 8));
        };
        std::uint16_t* up = dy != 0 ? f - 1 : sy != 0 ? f - stripe + 3 : sink;
        std::uint16_t* down = dy != 3 ? f + 1 : sy + 4 < h ? f + stripe - 3 : sink;
        up[0] |= direct(f_s);
        down[0] |= direct(f_n);
        f[-4] |= direct(f_e);
        f[4] |= direct(f_w);
        up[-4] |= f_se;
        up[4] |= f_sw;
        down[-4] |= f_ne;
        down[4] |= f_nw;
    }

    /// First row offset (0..3) whose bit at `plane` is 1, or 4 if none.
    /// Only meaningful on the encoder side; the decoder never consumes it.
    [[nodiscard]] int first_one_in_column(int x, int sy) const noexcept
    {
        if constexpr (!IO::is_decoder) {
            for (int dy = 0; dy < 4; ++dy)
                if ((mag[index(x, sy + dy)] >> plane) & 1u) return dy;
        }
        return 4;
    }

    [[nodiscard]] std::size_t index(int x, int y) const noexcept
    {
        return static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
               static_cast<std::size_t>(x);
    }
};

/// Runs a block's passes in order, carrying the IO (and so the MQ coder's
/// state) and the visited-sample count from one pass to the next.
template <typename IO>
struct engine {
    block_state& st;
    std::uint32_t* mag;
    IO io;
    std::uint64_t visited = 0;  ///< samples visited (IO::counts only)

    void run(pass_ref pr)
    {
        pass_coder<IO> p{st.w,   st.h,     st.stripe, &st.flag(0, 0), *st.zc, st.cx.data(),
                         mag,    io,       pr.plane,  &st.sink[4]};
        switch (pr.kind) {
            case pass_kind::significance: p.significance(); break;
            case pass_kind::refinement: p.refinement(); break;
            case pass_kind::cleanup: p.cleanup(); break;
        }
        io = p.io;
        visited += p.visited;
    }
};

struct encode_io {
    static constexpr bool is_decoder = false;
    static constexpr bool counts = false;
    mq_encoder* enc;
    int bit(mq_context& cx, int actual)
    {
        enc->encode(cx, actual);
        return actual;
    }
};

/// `Count` instantiates the engine with tier1_stats counting (decisions
/// here, visited samples in pass_coder) or without it.
template <bool Count>
struct decode_io {
    static constexpr bool is_decoder = true;
    static constexpr bool counts = Count;
    mq_decoder dec;
    std::uint64_t decisions = 0;  ///< decisions decoded (Count only)
    int bit(mq_context& cx, int /*actual*/) noexcept
    {
        if constexpr (Count) ++decisions;
        return dec.decode(cx);
    }
};

/// Decode passes [first, end) of the canonical sequence from one codeword
/// segment, with counting compiled in only when `stats` asks for it: then
/// each pass is also timed, and its decisions and time charged to its kind.
void decode_passes(block_state& st, std::uint32_t* mag, int num_planes, int first, int end,
                   std::span<const std::uint8_t> data, tier1_stats* stats)
{
    const auto run = [&]<bool Count>(std::bool_constant<Count>) {
        engine<decode_io<Count>> eng{st, mag, decode_io<Count>{mq_decoder{data}}};
        for (int i = first; i < end; ++i) {
            const pass_ref pr = pass_at(num_planes, i);
            if constexpr (Count) {
                using clock = std::chrono::steady_clock;
                const auto t0 = clock::now();
                const std::uint64_t d0 = eng.io.decisions;
                eng.run(pr);
                auto& totals = stats->by_pass[static_cast<std::size_t>(pr.kind)];
                totals.decisions += eng.io.decisions - d0;
                totals.ns += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
                        .count());
            } else {
                eng.run(pr);
            }
        }
        if constexpr (Count) {
            stats->mq_decisions += eng.io.decisions;
            stats->passes += static_cast<std::uint64_t>(end - first);
            stats->samples += eng.visited;
        }
    };
    if (stats)
        run(std::true_type{});
    else
        run(std::false_type{});
}

/// Encoder-side set-up shared by the plain and layered encoders: magnitudes,
/// NEG preset from the coefficient signs, and the plane count (0 = empty).
int load_coefficients(const std::int32_t* coeffs, block_state& st,
                      std::vector<std::uint32_t>& mag)
{
    mag.resize(static_cast<std::size_t>(st.w) * static_cast<std::size_t>(st.h));
    std::uint32_t maxmag = 0;
    for (int y = 0; y < st.h; ++y) {
        for (int x = 0; x < st.w; ++x) {
            const std::size_t i = static_cast<std::size_t>(y) * static_cast<std::size_t>(st.w) +
                                  static_cast<std::size_t>(x);
            const std::int32_t v = coeffs[i];
            mag[i] = static_cast<std::uint32_t>(std::abs(v));
            if (v < 0) st.flag(x, y) = f_neg;
            maxmag = std::max(maxmag, mag[i]);
        }
    }
    return std::bit_width(maxmag);
}

}  // namespace

codeblock tier1_encode(const std::int32_t* coeffs, int w, int h, band orient)
{
    if (w <= 0 || h <= 0) throw std::invalid_argument{"tier1_encode: empty block"};
    block_state st{w, h, orient};
    std::vector<std::uint32_t> mag;
    codeblock cb;
    cb.width = w;
    cb.height = h;
    cb.num_planes = load_coefficients(coeffs, st, mag);
    if (cb.num_planes == 0) return cb;  // nothing to code

    mq_encoder enc;
    engine<encode_io> eng{st, mag.data(), encode_io{&enc}};
    for (int i = 0; i < pass_total(cb.num_planes); ++i) eng.run(pass_at(cb.num_planes, i));
    cb.data = enc.flush();
    return cb;
}

layered_codeblock tier1_encode_layered(const std::int32_t* coeffs, int w, int h,
                                       band orient,
                                       const std::vector<int>& passes_per_layer)
{
    if (w <= 0 || h <= 0)
        throw std::invalid_argument{"tier1_encode_layered: empty block"};
    if (passes_per_layer.empty())
        throw std::invalid_argument{"tier1_encode_layered: no layers"};
    block_state st{w, h, orient};
    std::vector<std::uint32_t> mag;
    layered_codeblock out;
    out.width = w;
    out.height = h;
    out.segments.resize(passes_per_layer.size());
    out.num_planes = load_coefficients(coeffs, st, mag);
    if (out.num_planes == 0) return out;

    const int total = pass_total(out.num_planes);
    mq_encoder enc;
    engine<encode_io> eng{st, mag.data(), encode_io{&enc}};
    int pass_i = 0;
    for (std::size_t layer = 0; layer < passes_per_layer.size(); ++layer) {
        // The last layer absorbs all remaining passes.
        const int want = layer + 1 == passes_per_layer.size()
                             ? total - pass_i
                             : std::min(std::max(0, passes_per_layer[layer]), total - pass_i);
        for (int k = 0; k < want; ++k) eng.run(pass_at(out.num_planes, pass_i++));
        out.segments[layer].passes = want;
        // Terminate the codeword at the layer boundary; contexts persist.
        out.segments[layer].data = enc.flush();
        enc.init();
    }
    return out;
}

/// Persistent state of a resumable block decoder: the shared coder state,
/// the magnitude accumulator and the cursor into the canonical pass sequence.
struct tier1_block_decoder::state {
    block_state bs;
    std::pmr::vector<std::uint32_t> mag;
    int num_planes;
    int pass_i = 0;
    int segments = 0;

    state(int w, int h, int planes, band orient, std::pmr::memory_resource* mr)
        : bs{w, h, orient, mr},
          mag(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), 0u, mr_of(mr)),
          num_planes{planes}
    {
    }
};

tier1_block_decoder::tier1_block_decoder(int width, int height, int num_planes,
                                         band orient,
                                         std::pmr::memory_resource* mr)
{
    if (width <= 0 || height <= 0)
        throw std::invalid_argument{"tier1_block_decoder: empty block"};
    // num_planes is stream data, not an API argument — malformed values are a
    // codestream error so hostile inputs stay inside the decode error contract.
    if (num_planes < 0 || num_planes > k_max_bitplanes)
        throw codestream_error{"tier1_block_decoder: implausible plane count"};
    st_ = std::make_unique<state>(width, height, num_planes, orient, mr);
}

tier1_block_decoder::~tier1_block_decoder() = default;
tier1_block_decoder::tier1_block_decoder(tier1_block_decoder&&) noexcept = default;
tier1_block_decoder& tier1_block_decoder::operator=(tier1_block_decoder&&) noexcept =
    default;

int tier1_block_decoder::width() const noexcept { return st_->bs.w; }
int tier1_block_decoder::height() const noexcept { return st_->bs.h; }
int tier1_block_decoder::segments_consumed() const noexcept { return st_->segments; }

std::size_t tier1_block_decoder::resident_bytes() const noexcept
{
    return sizeof(state) + st_->bs.flags.capacity() * sizeof(std::uint16_t) +
           st_->mag.capacity() * sizeof(std::uint32_t);
}

void tier1_block_decoder::advance(int passes, std::span<const std::uint8_t> data,
                                  tier1_stats* stats)
{
    state& st = *st_;
    ++st.segments;
    if (st.num_planes == 0 || passes <= 0) return;
    const int end = std::min(pass_total(st.num_planes), st.pass_i + passes);
    decode_passes(st.bs, st.mag.data(), st.num_planes, st.pass_i, end, data, stats);
    st.pass_i = end;
}

void tier1_block_decoder::read(std::int32_t* out, std::ptrdiff_t stride) const
{
    st_->bs.write_signed(st_->mag.data(), out, stride);
}

void tier1_decode_layered(const layered_codeblock& cb, std::int32_t* out,
                          band orient, int layers, tier1_stats* stats,
                          std::pmr::memory_resource* mr)
{
    if (cb.width <= 0 || cb.height <= 0)
        throw std::invalid_argument{"tier1_decode_layered: empty block"};
    const auto n = static_cast<std::size_t>(cb.width) * static_cast<std::size_t>(cb.height);
    // One batch decode is the resumable decoder fed every segment in turn —
    // a single code path keeps the incremental session bit-exact by
    // construction (num_planes validation happens in the constructor).
    tier1_block_decoder dec{cb.width, cb.height, cb.num_planes, orient, mr};
    if (cb.num_planes == 0) {
        std::fill(out, out + n, 0);
        return;
    }
    const std::size_t use_layers =
        layers <= 0 ? cb.segments.size()
                    : std::min<std::size_t>(static_cast<std::size_t>(layers),
                                            cb.segments.size());
    for (std::size_t layer = 0; layer < use_layers; ++layer) {
        const auto& seg = cb.segments[layer];
        dec.advance(seg.passes, seg.data, stats);
    }
    dec.read(out);
}

void tier1_decode(int width, int height, int num_planes, std::span<const std::uint8_t> data,
                  std::int32_t* out, std::ptrdiff_t out_stride, band orient,
                  tier1_stats* stats, int max_passes, std::pmr::memory_resource* mr)
{
    if (width <= 0 || height <= 0)
        throw std::invalid_argument{"tier1_decode: empty block"};
    // Stream data, same contract as tier1_decode_layered above.
    if (num_planes < 0 || num_planes > k_max_bitplanes)
        throw codestream_error{"tier1_decode: implausible bit-plane count"};
    if (num_planes == 0) {
        for (int y = 0; y < height; ++y) std::fill_n(out + y * out_stride, width, 0);
        return;
    }
    // Magnitudes accumulate row-major and unpadded; the signs come from the
    // flag words in the one signed write.
    block_state st{width, height, orient, mr};
    const auto n = static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
    std::pmr::vector<std::uint32_t> mag(n, 0u, mr_of(mr));
    const int total = pass_total(num_planes);
    const int passes = max_passes > 0 ? std::min(max_passes, total) : total;
    decode_passes(st, mag.data(), num_planes, 0, passes, data, stats);
    st.write_signed(mag.data(), out, out_stride);
}

void tier1_decode(const codeblock& cb, std::int32_t* out, band orient,
                  tier1_stats* stats, int max_passes,
                  std::pmr::memory_resource* mr)
{
    tier1_decode(cb.width, cb.height, cb.num_planes, cb.data, out, cb.width, orient,
                 stats, max_passes, mr);
}

}  // namespace j2k
