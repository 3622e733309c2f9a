// loadgen.hpp — single-threaded epoll load generator speaking J2NE.
//
// One thread, non-blocking sockets, at most `nproc` connections: with the
// server's loop thread and two workers that is one busy thread per core.
// Requests are framed with net/protocol.hpp and written straight from the
// corpus buffers (sendmsg over header + payload, no copy).  Responses are
// parsed incrementally and every payload byte is compared with the input's
// expected raw payload as it arrives, so a response is checked without being
// stored.  Bytes are compared rather than hashed: a byte-serial FNV-1a of
// one 512 KiB ccsds_zipf response costs ~0.7 ms, which puts the generator's
// CPU share near the 0.8 guard.
//
// Open phase: request i is due at t0 + i / rate, sent round-robin over the
// connections whether or not earlier requests have been answered; a timerfd
// with an absolute deadline wakes the loop for each due time.  Latency is
// timed from the due time, so a stall is charged to every request it delays.
// Closed phase: one request in flight per connection; a completion sends the
// next request on the same connection.
#pragma once

#include "corpus.hpp"
#include "spans.hpp"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace bench {

enum class outcome : std::uint8_t { pending, ok, error_status, shed, mismatch, timeout };

struct request_record {
    std::uint32_t input = 0;
    std::int64_t due = 0;          ///< scheduled send (open) / issue time (closed)
    std::int64_t sent = 0;         ///< send started
    std::int64_t send_done = 0;    ///< last request byte handed to the kernel
    std::int64_t first_byte = 0;   ///< first response byte read
    std::int64_t first_frame = 0;  ///< first response frame complete
    std::int64_t done = 0;         ///< final response frame complete
    std::uint8_t frames = 0;
    bool bad = false;              ///< a frame failed its check
    outcome out = outcome::pending;
};

struct phase_result {
    std::string name;
    std::vector<request_record> reqs;
    std::int64_t begin_ns = 0;  ///< measurement window (closed: issuing window)
    std::int64_t end_ns = 0;
    double cpu_frac = 0.0;      ///< load-generator thread CPU / wall time

    [[nodiscard]] std::size_t count(outcome o) const;
    [[nodiscard]] std::size_t failed() const;
    /// Closed phase: requests completed per second, by Little's law — the
    /// in-flight count over the mean latency of the requests issued inside
    /// the window.  Unlike counting completions in the window it does not
    /// quantise at low rates.
    [[nodiscard]] double closed_rps(int in_flight) const;
};

/// p99 of (sent - due) in ms over open phases — how late the generator ran.
[[nodiscard]] double lag_p99_ms(const std::vector<phase_result>& ps);

class loadgen {
public:
    loadgen(const corpus& c, std::uint16_t port, int connections);
    ~loadgen();

    loadgen(const loadgen&) = delete;
    loadgen& operator=(const loadgen&) = delete;

    /// Every input once, `in_flight` at a time.
    phase_result warm(int in_flight);

    /// Fixed-rate open loop over `inputs`.  When `client` is set, each
    /// request's spans are recorded into it as the request completes.
    phase_result open(const std::vector<std::uint32_t>& inputs, double rps,
                      spans::track* client = nullptr);

    /// Closed loop for `seconds`: the workload's `closed_in_flight` requests in
    /// flight, one per connection.  `at_start` / `at_end` run exactly at the
    /// window boundaries (server CPU is read there).
    phase_result closed(sequence& seq, double seconds,
                        const std::function<void()>& at_start,
                        const std::function<void()>& at_end);

    /// Responses that matched no outstanding request, and framing errors.
    [[nodiscard]] std::uint64_t protocol_errors() const noexcept
    {
        return protocol_errors_;
    }

private:
    struct conn;

    using source = std::function<std::optional<std::uint32_t>()>;
    phase_result run_closed(const char* name, const source& src, int in_flight,
                            std::int64_t seconds_ns,
                            const std::function<void()>& at_start,
                            const std::function<void()>& at_end);
    void begin_phase(phase_result& p, std::size_t id_range);
    void end_phase(phase_result& p, double cpu0_s, std::int64_t wall0);
    void issue(std::size_t ci, std::size_t ri);
    void flush(conn& c);
    void set_write_interest(conn& c, bool on);
    void on_readable(std::size_t ci);
    void consume(std::size_t ci, const std::uint8_t* p, std::size_t n, std::int64_t t);
    void finish_frame(std::size_t ci, std::int64_t t);
    void kill_conn(conn& c, const char* why);
    void wait(int timeout_ms);
    /// Open phase: send every request whose due time has passed.
    void send_due();
    void arm_timer(std::int64_t at_ns);

    const corpus& corpus_;
    int ep_ = -1;
    int timer_ = -1;
    std::vector<conn> conns_;
    std::vector<std::uint8_t> rbuf_;

    // Current phase.
    phase_result* phase_ = nullptr;
    std::uint32_t rid_base_ = 1;
    std::uint32_t next_rid_ = 1;
    std::size_t outstanding_ = 0;
    spans::track* client_ = nullptr;
    std::size_t open_next_ = SIZE_MAX;  ///< next open-phase request; MAX outside one
    // Closed-loop state.
    const source* src_ = nullptr;
    bool issuing_ = false;

    std::uint64_t protocol_errors_ = 0;
    int mismatch_reports_ = 0;
};

}  // namespace bench
