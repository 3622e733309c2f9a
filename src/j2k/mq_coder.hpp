// j2k/mq_coder.hpp — the MQ binary arithmetic coder of ISO/IEC 15444-1.
//
// This is the entropy-coding engine of JPEG 2000 (identical to the JBIG2 MQ
// coder): an adaptive, multiplication-free binary arithmetic coder driven by
// a 47-entry probability state machine.  The encoder/decoder pair implements
// the flow charts of ISO/IEC 15444-1 Annex C (ENCODE / CODEMPS / CODELPS /
// BYTEOUT / FLUSH and INITDEC / DECODE / MPS_EXCHANGE / LPS_EXCHANGE /
// RENORMD / BYTEIN) with 0xFF byte-stuffing.
//
// A context is one state byte, `index·2 + MPS` (0..93).  Both coders look it
// up in a 94-entry table derived at compile time from Table C.2: Qe and the
// state bytes that follow an MPS and an LPS, the SWITCH already folded into
// the LPS successor's MPS bit.  A decision is therefore one table load, and
// the new state is `next[is_lps]` with no SWITCH branch.
//
// The decoder's DECODE has no data-dependent branch.  The spec branches
// twice: on whether C lies in the LPS or the MPS sub-interval, and, for an
// MPS, on whether A still has bit 15 set.  Refinement decisions and noisy
// significance decisions go either way at random, so both branches
// mispredicted often.  Here both outcomes are computed and selected with
// masks: `lps` (C below Qe), `exchange` (the decision is the LPS, which is
// when C lies in the smaller sub-interval), the new A and C, and the new
// state, kept where an MPS leaves A ≥ 0x8000.  In that case RENORMD shifts
// by 0.
//
// RENORMD shifts A left by its leading-zero count in one step and C by the
// same amount, looping only where CT runs out of bits first (BYTEIN then
// refills C, honouring the stuffing and the end of the segment).  Bit for
// bit it is the spec's one-bit-per-iteration loop.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace j2k {

/// Adaptive probability state of one coding context: one byte holding
/// `index·2 + MPS`, where index is the Table C.2 row (0..46) and MPS the
/// current most-probable symbol.
struct mq_context {
    std::uint8_t state = 0;

    void reset(std::uint8_t idx = 0, std::uint8_t m = 0) noexcept
    {
        state = static_cast<std::uint8_t>(idx * 2 + m);
    }
};

/// One row of the ISO/IEC 15444-1 Table C.2 probability state machine.
struct mq_state {
    std::uint16_t qe;      ///< LPS probability estimate
    std::uint8_t nmps;     ///< next state after an MPS
    std::uint8_t nlps;     ///< next state after an LPS
    std::uint8_t sw;       ///< 1 ⇒ exchange MPS sense on LPS
};

/// One row of the coders' 94-entry table, indexed by a context's state byte.
struct mq_transition {
    std::uint16_t qe;            ///< LPS probability estimate
    std::uint8_t next[2];        ///< state byte after an MPS [0] / an LPS [1]
};

namespace detail {
/// ISO/IEC 15444-1 Table C.2 — Qe values and probability estimation state
/// transitions, {Qe, NMPS, NLPS, SWITCH}.
inline constexpr std::array<mq_state, 47> k_mq_states{{
    {0x5601, 1, 1, 1},   {0x3401, 2, 6, 0},   {0x1801, 3, 9, 0},
    {0x0AC1, 4, 12, 0},  {0x0521, 5, 29, 0},  {0x0221, 38, 33, 0},
    {0x5601, 7, 6, 1},   {0x5401, 8, 14, 0},  {0x4801, 9, 14, 0},
    {0x3801, 10, 14, 0}, {0x3001, 11, 17, 0}, {0x2401, 12, 18, 0},
    {0x1C01, 13, 20, 0}, {0x1601, 29, 21, 0}, {0x5601, 15, 14, 1},
    {0x5401, 16, 14, 0}, {0x5101, 17, 15, 0}, {0x4801, 18, 16, 0},
    {0x3801, 19, 17, 0}, {0x3401, 20, 18, 0}, {0x3001, 21, 19, 0},
    {0x2801, 22, 19, 0}, {0x2401, 23, 20, 0}, {0x2201, 24, 21, 0},
    {0x1C01, 25, 22, 0}, {0x1801, 26, 23, 0}, {0x1601, 27, 24, 0},
    {0x1401, 28, 25, 0}, {0x1201, 29, 26, 0}, {0x1101, 30, 27, 0},
    {0x0AC1, 31, 28, 0}, {0x09C1, 32, 29, 0}, {0x08A1, 33, 30, 0},
    {0x0521, 34, 31, 0}, {0x0441, 35, 32, 0}, {0x02A1, 36, 33, 0},
    {0x0221, 37, 34, 0}, {0x0141, 38, 35, 0}, {0x0111, 39, 36, 0},
    {0x0085, 40, 37, 0}, {0x0049, 41, 38, 0}, {0x0025, 42, 39, 0},
    {0x0015, 43, 40, 0}, {0x0009, 44, 41, 0}, {0x0005, 45, 42, 0},
    {0x0001, 45, 43, 0}, {0x5601, 46, 46, 0},
}};

/// Table C.2 expanded over both MPS senses.  In the header so that DECODE
/// inlines into the tier-1 passes.
inline constexpr std::array<mq_transition, 94> k_mq_transitions = [] {
    std::array<mq_transition, 94> t{};
    for (unsigned s = 0; s < t.size(); ++s) {
        const mq_state& row = k_mq_states[s >> 1];
        const unsigned mps = s & 1u;
        t[s] = {row.qe,
                {static_cast<std::uint8_t>(row.nmps * 2 + mps),
                 static_cast<std::uint8_t>(row.nlps * 2 + (mps ^ row.sw))}};
    }
    return t;
}();
}  // namespace detail

/// The 47-state table (shared by encoder and decoder).
[[nodiscard]] inline const mq_state& mq_table(std::uint8_t index) noexcept
{
    return detail::k_mq_states[index];
}

/// MQ encoder producing a byte vector.
class mq_encoder {
public:
    mq_encoder() { init(); }

    /// Reset all coder state and discard buffered output.
    void init();

    /// Encode one binary decision `d` in context `cx`.
    void encode(mq_context& cx, int d);

    /// Terminate the codeword (FLUSH) and return the bytes.  The encoder must
    /// be re-`init`ed before reuse.
    [[nodiscard]] std::vector<std::uint8_t> flush();

    /// Bytes emitted so far (grows during encoding).
    [[nodiscard]] std::size_t bytes_emitted() const noexcept { return out_.size(); }

private:
    void renorm();
    void byte_out();

    std::uint32_t c_ = 0;
    std::uint32_t a_ = 0;
    int ct_ = 0;
    bool have_b_ = false;     ///< a pending byte exists in b_
    std::uint8_t b_ = 0;      ///< pending (not yet committed) byte
    std::vector<std::uint8_t> out_;
};

/// MQ decoder reading from a byte span (not owned; must outlive the decoder).
///
/// A small value type: the registers (A, C, CT and the byte pointer) are its
/// whole state, and DECODE, RENORMD and BYTEIN are inline.  The tier-1 passes
/// copy the decoder into a local for the length of a pass and store it back
/// afterwards.  It keeps no decision count: tier-1 counts decisions only
/// when asked for statistics.
class mq_decoder {
public:
    explicit mq_decoder(std::span<const std::uint8_t> data) noexcept { init(data); }

    /// (Re)start decoding from `data` (INITDEC).
    void init(std::span<const std::uint8_t> data) noexcept;

    /// Decode one binary decision in context `cx` (DECODE), selecting
    /// between the two sub-intervals instead of branching on C.
    [[nodiscard]] int decode(mq_context& cx) noexcept
    {
        const std::uint8_t state = cx.state;
        const mq_transition& t = detail::k_mq_transitions[state];
        const std::uint32_t qe = t.qe;
        const std::uint32_t rest = a_ - qe;  // the MPS sub-interval's size
        // C lies in the LPS sub-interval: lps = 1, mask all ones.
        const std::uint32_t lps = (c_ >> 16) < qe ? 1u : 0u;
        const std::uint32_t mask = 0u - lps;
        // The decision is the LPS when C lies in the smaller sub-interval
        // (the conditional exchange); ties go to the LPS sub-interval.
        const std::uint32_t exchange = lps ^ (rest < qe ? 1u : 0u);
        // Only an MPS that leaves A ≥ 0x8000 keeps its state; exchange is
        // then 0 and the shift in RENORMD is 0.  rest < 0x10000.
        const std::uint32_t adapt = lps | ((rest >> 15) ^ 1u);
        a_ = (qe & mask) | (rest & ~mask);
        c_ -= (qe << 16) & ~mask;
        cx.state = static_cast<std::uint8_t>(state ^ ((state ^ t.next[exchange]) & (0u - adapt)));
        renorm();
        return static_cast<int>((state & 1u) ^ exchange);
    }

private:
    /// RENORMD: shift A left until bit 15 is set, and C with it, BYTEIN-ing
    /// whenever CT runs out on the way.  A shift of 0 when A ≥ 0x8000.
    void renorm() noexcept
    {
        // A ≥ 1, so the OR changes no leading zero; it only tells the
        // compiler that the count needs no zero case.
        int n = std::countl_zero(a_ | 1u) - 16;
        a_ <<= n;
        while (n > ct_) {
            c_ <<= ct_;
            n -= ct_;
            byte_in();
        }
        c_ <<= n;
        ct_ -= n;
    }

    /// The byte `k` places past the pointer, or 0xFF beyond the segment:
    /// reading past the codeword feeds 1-bits, as the spec prescribes when a
    /// marker is found.
    [[nodiscard]] std::uint32_t peek(std::ptrdiff_t k) const noexcept
    {
        return end_ - bp_ > k ? bp_[k] : 0xFFu;
    }

    /// BYTEIN, honouring the 0xFF stuffing of the encoder's BYTEOUT.
    void byte_in() noexcept
    {
        if (peek(0) == 0xFF) {
            const std::uint32_t next = peek(1);
            if (next > 0x8F) {
                // Marker (or end of segment): feed 1-bits from now on.
                c_ += 0xFF00;
                ct_ = 8;
            } else {
                ++bp_;
                c_ += next << 9;
                ct_ = 7;
            }
        } else {
            ++bp_;
            c_ += peek(0) << 8;
            ct_ = 8;
        }
    }

    const std::uint8_t* bp_ = nullptr;
    const std::uint8_t* end_ = nullptr;
    std::uint32_t c_ = 0;
    std::uint32_t a_ = 0;
    int ct_ = 0;
};

}  // namespace j2k
