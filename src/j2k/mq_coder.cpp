#include "mq_coder.hpp"

#include <stdexcept>

namespace j2k {

// ---------------------------------------------------------------------------
// Encoder (ISO/IEC 15444-1 C.2).  C is a 28-bit register; the byte about to
// be committed lives in b_ so a carry out of C can still propagate into it.
// A zero "sentinel" pending byte stands in for the spec's BPST-1 position.
// ---------------------------------------------------------------------------

void mq_encoder::init()
{
    a_ = 0x8000;
    c_ = 0;
    ct_ = 12;
    b_ = 0;
    have_b_ = false;
    out_.clear();
}

void mq_encoder::encode(mq_context& cx, int d)
{
    const mq_transition& t = detail::k_mq_transitions[cx.state];
    const std::uint32_t qe = t.qe;
    a_ -= qe;
    if ((d != 0) == ((cx.state & 1u) != 0)) {
        // CODEMPS
        if (a_ & 0x8000) {
            c_ += qe;
            return;
        }
        if (a_ < qe)
            a_ = qe;  // conditional exchange: MPS gets the lower subinterval
        else
            c_ += qe;
        cx.state = t.next[0];
    } else {
        // CODELPS
        if (a_ < qe)
            c_ += qe;  // conditional exchange
        else
            a_ = qe;
        cx.state = t.next[1];
    }
    renorm();
}

void mq_encoder::renorm()
{
    do {
        a_ <<= 1;
        c_ <<= 1;
        if (--ct_ == 0) byte_out();
    } while ((a_ & 0x8000) == 0);
}

void mq_encoder::byte_out()
{
    auto commit_pending = [this] {
        if (have_b_) out_.push_back(b_);
    };
    if (have_b_ && b_ == 0xFF) {
        // Stuffing: after an 0xFF only 7 bits go into the next byte so a
        // carry can never turn data into a marker.
        commit_pending();
        b_ = static_cast<std::uint8_t>(c_ >> 20);
        c_ &= 0xFFFFF;
        ct_ = 7;
    } else {
        if (c_ < 0x8000000) {
            commit_pending();
            b_ = static_cast<std::uint8_t>(c_ >> 19);
            c_ &= 0x7FFFF;
            ct_ = 8;
        } else {
            // Carry out of the C register propagates into the pending byte.
            // MQ invariants guarantee a pending byte exists here (the very
            // first BYTEOUT cannot carry).
            if (!have_b_) throw std::logic_error{"mq_encoder: carry with no pending byte"};
            ++b_;
            if (b_ == 0xFF) {
                c_ &= 0x7FFFFFF;
                commit_pending();
                b_ = static_cast<std::uint8_t>(c_ >> 20);
                c_ &= 0xFFFFF;
                ct_ = 7;
            } else {
                commit_pending();
                b_ = static_cast<std::uint8_t>(c_ >> 19);
                c_ &= 0x7FFFF;
                ct_ = 8;
            }
        }
    }
    have_b_ = true;
}

std::vector<std::uint8_t> mq_encoder::flush()
{
    // SETBITS: maximise the number of trailing 1 bits in C while keeping it
    // inside the final interval.
    const std::uint32_t tempc = c_ + a_;
    c_ |= 0xFFFF;
    if (c_ >= tempc) c_ -= 0x8000;

    c_ <<= ct_;
    byte_out();
    c_ <<= ct_;
    byte_out();
    if (have_b_ && b_ != 0xFF) out_.push_back(b_);  // trailing 0xFF is dropped
    have_b_ = false;

    std::vector<std::uint8_t> result;
    result.swap(out_);
    return result;
}

// ---------------------------------------------------------------------------
// Decoder (ISO/IEC 15444-1 C.3).  Reading past the end of the codeword
// segment feeds 1-bits, as the spec prescribes when a marker is found.
// ---------------------------------------------------------------------------

void mq_decoder::init(std::span<const std::uint8_t> data) noexcept
{
    bp_ = data.data();
    end_ = data.data() + data.size();
    c_ = peek(0) << 16;
    byte_in();
    c_ <<= 7;
    ct_ -= 7;
    a_ = 0x8000;
}

}  // namespace j2k
