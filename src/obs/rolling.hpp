// obs/rolling.hpp — rolling per-stage latency/rate aggregation over drained
// trace spans.
//
// The span tracer (trace.hpp) records *events*; production monitoring wants
// *distributions that forget*: "tier-1 p99 over the last 10 seconds", not
// since process start.  `rolling_stats` is the bridge: feed it batches from
// `tracer::collect_since()` and it pairs begin/end (and async b/e) events
// into completed spans, bucketing each duration into a per-stage ring of
// one-second log2 histograms.  Querying a trailing window (1 s / 10 s / 60 s)
// sums the live slots and interpolates quantiles — O(window × 64 buckets),
// no sample retention.
//
// Pairing state (open spans) survives across consume() calls, so a span
// whose B and E arrive in different drain batches still completes.  Sync
// spans pair per-thread innermost-first (Chrome "E closes the innermost B"
// semantics), on a stack per tracer thread index; async spans pair by (name,
// id) across threads, in a hash map keyed by the name's characters, not its
// address (names have static storage by the tracer's contract, so the keys
// can view them).  A span whose begin preceded the first batch fed — for the
// ops plane, one still open when the plane was built — counts as an
// unmatched end.
//
// Everything is mutex-guarded: consume() runs on the ops-plane drain thread
// while /metrics handlers (or tests) query concurrently.
#pragma once

#include "metrics.hpp"
#include "trace.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace obs {

class rolling_stats {
public:
    static constexpr int k_slots = 64;  ///< one-second slots retained per stage
    static constexpr int k_max_window_s = k_slots - 1;  ///< slot 64 may be mid-overwrite

    explicit rolling_stats(std::size_t max_stages = 32) : max_stages_{max_stages} {}

    rolling_stats(const rolling_stats&) = delete;
    rolling_stats& operator=(const rolling_stats&) = delete;

    /// Feed one drained batch (as returned by tracer::collect_since — sorted
    /// by timestamp).  Batches must come from a monotonically advancing
    /// cursor; re-feeding the same events double-counts them.
    void consume(const std::vector<trace_event>& evs);

    struct window_stats {
        std::uint64_t count = 0;   ///< spans completed inside the window
        double rate_per_s = 0.0;   ///< count / window seconds
        double mean_ns = 0.0;
        double p50_ns = 0.0;
        double p99_ns = 0.0;
        std::uint64_t max_ns = 0;
    };

    /// Stats for `stage` over the trailing `window_s` seconds (clamped to
    /// [1, k_max_window_s]) ending at `now_ns` — pass the tracer's now_ns()
    /// so rates decay to zero when traffic stops; 0 means "newest consumed
    /// timestamp".  Unknown stages return all-zero stats.
    [[nodiscard]] window_stats window(std::string_view stage, int window_s,
                                      std::uint64_t now_ns = 0) const;

    /// Stage names seen so far, in name order.
    [[nodiscard]] std::vector<std::string> stages() const;

    struct totals {
        std::uint64_t spans = 0;            ///< completed spans recorded
        std::uint64_t unmatched_ends = 0;   ///< E/e with no open B/b (ring wrap)
        std::uint64_t dropped_stages = 0;   ///< spans past the max_stages cap
        std::uint64_t open_spans = 0;       ///< begins still awaiting their end
    };
    [[nodiscard]] totals get_totals() const;

private:
    /// One second of one stage: a compact log2 histogram plus count/sum/max.
    struct slot {
        std::uint64_t second = ~std::uint64_t{0};  ///< ts_ns / 1e9 this slot holds
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t max = 0;
        std::array<std::uint64_t, log2_histogram::k_buckets> buckets{};
    };
    struct stage_ring {
        std::array<slot, k_slots> slots{};
        std::uint64_t newest_second = 0;
    };
    struct open_sync {
        const char* name = nullptr;
        std::uint64_t ts_ns = 0;
    };
    struct async_key {
        std::string_view name;
        std::uint64_t id = 0;
        bool operator==(const async_key&) const = default;
    };
    struct async_key_hash {
        std::size_t operator()(const async_key& k) const noexcept
        {
            return std::hash<std::string_view>{}(k.name) ^
                   std::hash<std::uint64_t>{}(k.id) * 0x9E3779B97F4A7C15ull;
        }
    };

    stage_ring* ring_for(std::string_view name);  // may return null (cap)
    void observe(stage_ring& r, std::uint64_t end_ts_ns, std::uint64_t dur_ns);

    const std::size_t max_stages_;
    mutable std::mutex m_;
    std::map<std::string, stage_ring, std::less<>> stages_;
    std::vector<std::vector<open_sync>> sync_open_;  ///< indexed by tid
    /// Begin timestamps of open async spans.
    std::unordered_map<async_key, std::uint64_t, async_key_hash> async_open_;
    std::uint64_t newest_ts_ = 0;
    totals totals_;
};

}  // namespace obs
