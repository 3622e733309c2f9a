#include "rolling.hpp"

#include <algorithm>
#include <bit>

namespace obs {

namespace {

constexpr std::uint64_t k_ns_per_s = 1'000'000'000ull;

int bucket_of(std::uint64_t v) noexcept
{
    const int b = static_cast<int>(std::bit_width(v));  // 0 for v == 0
    return b >= log2_histogram::k_buckets ? log2_histogram::k_buckets - 1 : b;
}

}  // namespace

rolling_stats::stage_ring* rolling_stats::ring_for(std::string_view name)
{
    auto it = stages_.find(name);
    if (it != stages_.end()) return &it->second;
    if (stages_.size() >= max_stages_) {
        ++totals_.dropped_stages;
        return nullptr;
    }
    return &stages_.emplace(std::string{name}, stage_ring{}).first->second;
}

void rolling_stats::observe(stage_ring& r, std::uint64_t end_ts_ns,
                            std::uint64_t dur_ns)
{
    const std::uint64_t second = end_ts_ns / k_ns_per_s;
    slot& s = r.slots[second % k_slots];
    if (s.second != second) {
        s = slot{};
        s.second = second;
    }
    ++s.count;
    s.sum += dur_ns;
    s.max = std::max(s.max, dur_ns);
    ++s.buckets[static_cast<std::size_t>(bucket_of(dur_ns))];
    r.newest_second = std::max(r.newest_second, second);
    ++totals_.spans;
}

void rolling_stats::consume(const std::vector<trace_event>& evs)
{
    std::lock_guard lk{m_};
    for (const trace_event& ev : evs) {
        if (!ev.name) continue;
        newest_ts_ = std::max(newest_ts_, ev.ts_ns);
        switch (ev.type) {
        case event_type::begin:
            if (ev.tid >= sync_open_.size()) sync_open_.resize(ev.tid + 1);
            sync_open_[ev.tid].push_back({ev.name, ev.ts_ns});
            break;
        case event_type::end: {
            if (ev.tid >= sync_open_.size()) sync_open_.resize(ev.tid + 1);
            auto& stack = sync_open_[ev.tid];
            if (stack.empty()) {
                // The matching B fell off the ring before a drain saw it, or
                // preceded the first cursor; the duration is unknowable.
                ++totals_.unmatched_ends;
                break;
            }
            // Chrome semantics: E closes the innermost open B on the thread,
            // whatever its name (the tracer emits balanced pairs, but a
            // wrapped ring can strand mismatches — trust the stack).
            const open_sync b = stack.back();
            stack.pop_back();
            if (stage_ring* r = ring_for(b.name))
                observe(*r, ev.ts_ns, ev.ts_ns >= b.ts_ns ? ev.ts_ns - b.ts_ns : 0);
            break;
        }
        case event_type::async_begin:
            async_open_[{ev.name, static_cast<std::uint64_t>(ev.value)}] = ev.ts_ns;
            break;
        case event_type::async_end: {
            auto it = async_open_.find({ev.name, static_cast<std::uint64_t>(ev.value)});
            if (it == async_open_.end()) {
                ++totals_.unmatched_ends;
                break;
            }
            const std::uint64_t begin_ts = it->second;
            async_open_.erase(it);
            if (stage_ring* r = ring_for(ev.name))
                observe(*r, ev.ts_ns, ev.ts_ns >= begin_ts ? ev.ts_ns - begin_ts : 0);
            break;
        }
        case event_type::instant:
        case event_type::counter:
            break;  // point events carry no duration
        }
    }
}

rolling_stats::window_stats rolling_stats::window(std::string_view stage, int window_s,
                                                  std::uint64_t now_ns) const
{
    window_stats w;
    window_s = std::clamp(window_s, 1, k_max_window_s);
    std::lock_guard lk{m_};
    auto it = stages_.find(stage);
    if (it == stages_.end()) return w;
    const stage_ring& r = it->second;
    if (now_ns == 0) now_ns = newest_ts_;
    const std::uint64_t now_second = now_ns / k_ns_per_s;

    // Sum the slots for seconds (now - window, now]; a slot participates only
    // when it still holds the second the window expects (older slots are
    // either reset-on-write leftovers or from a lap ago).
    log2_histogram::data d;
    for (int back = 0; back < window_s; ++back) {
        if (now_second < static_cast<std::uint64_t>(back)) break;
        const std::uint64_t second = now_second - static_cast<std::uint64_t>(back);
        const slot& s = r.slots[second % k_slots];
        if (s.second != second) continue;
        d.count += s.count;
        d.sum += s.sum;
        d.max = std::max(d.max, s.max);
        for (int b = 0; b < log2_histogram::k_buckets; ++b)
            d.buckets[static_cast<std::size_t>(b)] +=
                s.buckets[static_cast<std::size_t>(b)];
    }
    w.count = d.count;
    w.rate_per_s = static_cast<double>(d.count) / window_s;
    w.mean_ns = d.mean();
    w.p50_ns = d.quantile(0.50);
    w.p99_ns = d.quantile(0.99);
    w.max_ns = d.max;
    return w;
}

std::vector<std::string> rolling_stats::stages() const
{
    std::lock_guard lk{m_};
    std::vector<std::string> out;
    out.reserve(stages_.size());
    for (const auto& [name, ring] : stages_) out.push_back(name);
    return out;
}

rolling_stats::totals rolling_stats::get_totals() const
{
    std::lock_guard lk{m_};
    totals t = totals_;
    for (const auto& stack : sync_open_) t.open_spans += stack.size();
    t.open_spans += async_open_.size();
    return t;
}

}  // namespace obs
