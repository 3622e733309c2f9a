// tests/j2k/mq_oracle.hpp — the reference MQ decoder the fast one is checked
// against.
//
// This is the decoder tier-1 ran before contexts became one state byte,
// RENORMD a single shift and DECODE a select instead of its two branches: a
// literal transcription of the ISO/IEC 15444-1 Annex C flow charts (DECODE
// with its LPS/MPS branch, MPS_EXCHANGE / LPS_EXCHANGE and the SWITCH
// branch, RENORMD one bit per iteration, BYTEIN with 0xFF stuffing), over
// contexts that carry (index, MPS) as two fields and Table C.2 as
// j2k::mq_table gives it.  Test code only: the one decoder the fast one is
// held to, decision by decision.
#pragma once

#include <j2k/mq_coder.hpp>

#include <cstddef>
#include <cstdint>
#include <span>

namespace mq_oracle {

/// Adaptive probability state of one coding context.
struct context {
    std::uint8_t index = 0;  ///< state index into the Qe table (0..46)
    std::uint8_t mps = 0;    ///< current most-probable symbol (0 or 1)
};

class decoder {
public:
    explicit decoder(std::span<const std::uint8_t> data) noexcept
    {
        bp_ = data.data();
        end_ = data.data() + data.size();
        c_ = peek(0) << 16;
        byte_in();
        c_ <<= 7;
        ct_ -= 7;
        a_ = 0x8000;
    }

    /// DECODE.
    [[nodiscard]] int decode(context& cx) noexcept
    {
        const j2k::mq_state& s = j2k::mq_table(cx.index);
        const std::uint32_t qe = s.qe;
        a_ -= qe;
        int d;
        if ((c_ >> 16) < qe) {
            // LPS_EXCHANGE
            if (a_ < qe) {
                d = cx.mps;
                cx.index = s.nmps;
            } else {
                d = 1 - cx.mps;
                cx.mps = static_cast<std::uint8_t>(cx.mps ^ s.sw);
                cx.index = s.nlps;
            }
            a_ = qe;
        } else {
            c_ -= qe << 16;
            if (a_ & 0x8000) return cx.mps;
            // MPS_EXCHANGE
            if (a_ < qe) {
                d = 1 - cx.mps;
                cx.mps = static_cast<std::uint8_t>(cx.mps ^ s.sw);
                cx.index = s.nlps;
            } else {
                d = cx.mps;
                cx.index = s.nmps;
            }
        }
        renorm();
        return d;
    }

private:
    /// RENORMD: one shift per iteration until A regains bit 15.
    void renorm() noexcept
    {
        do {
            if (ct_ == 0) byte_in();
            a_ <<= 1;
            c_ <<= 1;
            --ct_;
        } while ((a_ & 0x8000) == 0);
    }

    /// The byte `k` places past the pointer, or 0xFF beyond the segment.
    [[nodiscard]] std::uint32_t peek(std::ptrdiff_t k) const noexcept
    {
        return end_ - bp_ > k ? bp_[k] : 0xFFu;
    }

    /// BYTEIN.
    void byte_in() noexcept
    {
        if (peek(0) == 0xFF) {
            const std::uint32_t next = peek(1);
            if (next > 0x8F) {
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

}  // namespace mq_oracle
