#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace obs {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

void event_ring::drain(std::vector<trace_event>& out, std::uint64_t since_ns) const
{
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t oldest = h < k_capacity ? 0 : h - k_capacity;
    // The ring's one producer stamps its events in order, so the events at or
    // after the cursor are a suffix: walk back from the head to the first
    // older one.  An overwrite only ever puts a newer stamp in a slot, so the
    // walk cannot stop short of an event the cursor admits.
    std::uint64_t first = h;
    while (first > oldest &&
           slots_[(first - 1) & (k_capacity - 1)].ts_ns.load(std::memory_order_relaxed) >=
               since_ns)
        --first;
    for (std::uint64_t i = first; i < h; ++i) {
        const slot& s = slots_[i & (k_capacity - 1)];
        if (s.seq.load(std::memory_order_acquire) != i + 1) continue;  // mid-write
        trace_event ev;
        ev.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
        if (ev.ts_ns < since_ns) continue;
        ev.name = reinterpret_cast<const char*>(s.name.load(std::memory_order_relaxed));
        ev.category = reinterpret_cast<const char*>(s.cat.load(std::memory_order_relaxed));
        ev.type = static_cast<event_type>(s.type.load(std::memory_order_relaxed));
        ev.value = static_cast<std::int64_t>(s.value.load(std::memory_order_relaxed));
        ev.tid = tid_;
        // Accept only if the slot was not overwritten while we read it: the
        // acquire fence pairs with the writer's release fence, so if any new
        // payload word was seen the re-read below sees the invalidation too.
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) != i + 1) continue;
        out.push_back(ev);
    }
}

std::vector<trace_event> collect_since(std::span<const std::shared_ptr<event_ring>> rings,
                                       std::uint64_t since_ns)
{
    // Each ring's run is already in timestamp order, so merging each run
    // into what came before sorts the batch; std::inplace_merge is stable,
    // so ties keep ring order exactly as a stable sort of the runs would.
    std::vector<trace_event> evs;
    for (const auto& r : rings) {
        const auto mid = static_cast<std::ptrdiff_t>(evs.size());
        r->drain(evs, since_ns);
        std::inplace_merge(evs.begin(), evs.begin() + mid, evs.end(),
                           [](const trace_event& a, const trace_event& b) {
                               return a.ts_ns < b.ts_ns;
                           });
    }
    return evs;
}

namespace {

/// Per-thread handle; shared ownership with the tracer registry so a ring
/// outlives its thread and a late drain still sees the events.
thread_local std::shared_ptr<event_ring> tl_ring;

/// Thread name set before the thread emitted anything: applied when (if) the
/// ring is created, so naming a thread never allocates a ring by itself.
thread_local const char* tl_pending_name = nullptr;

}  // namespace

}  // namespace detail

tracer& tracer::instance()
{
    // Never destroyed: pool workers that outlive static destruction (the
    // shared thread pool's) may still name their thread or emit at exit.
    static tracer* const t = new tracer;
    return *t;
}

tracer::tracer()
    : epoch_ns_{static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())}
{
}

std::uint64_t tracer::now_ns() const noexcept
{
    return static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count()) -
           epoch_ns_;
}

detail::event_ring& tracer::ring_for_this_thread()
{
    if (!detail::tl_ring) {
        std::lock_guard lk{rings_m_};
        auto ring = std::make_shared<detail::event_ring>(
            static_cast<std::uint32_t>(rings_.size()));
        if (detail::tl_pending_name) ring->set_thread_name(detail::tl_pending_name);
        rings_.push_back(ring);
        detail::tl_ring = std::move(ring);
    }
    return *detail::tl_ring;
}

void tracer::emit(event_type t, const char* cat, const char* name,
                  std::int64_t value) noexcept
{
    ring_for_this_thread().push(t, cat, name, now_ns(), value);
}

const char* tracer::intern(std::string_view s)
{
    std::lock_guard lk{intern_m_};
    return interned_.emplace(s).first->c_str();
}

void tracer::set_thread_name(std::string_view name)
{
    detail::tl_pending_name = intern(name);
    if (detail::tl_ring) detail::tl_ring->set_thread_name(detail::tl_pending_name);
}

std::vector<trace_event> tracer::collect() const
{
    return collect_since(0);
}

std::vector<trace_event> tracer::collect_since(std::uint64_t since_ns) const
{
    std::vector<std::shared_ptr<detail::event_ring>> rings;
    {
        std::lock_guard lk{rings_m_};
        rings = rings_;
    }
    return detail::collect_since(rings, since_ns);
}

tracer::stats tracer::get_stats() const
{
    std::lock_guard lk{rings_m_};
    stats s;
    s.threads = rings_.size();
    for (const auto& r : rings_) {
        s.pushed += r->pushed();
        s.overwritten += r->overwritten();
    }
    return s;
}

namespace {

void json_escape(std::ostream& os, const char* s)
{
    if (!s) {
        os << "null";
        return;
    }
    os << '"';
    for (; *s; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
               << "0123456789abcdef"[c & 0xf];
        else
            os << c;
    }
    os << '"';
}

void write_ts_us(std::ostream& os, std::uint64_t ns)
{
    // Microseconds with nanosecond resolution, without float rounding.
    os << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
       << static_cast<char>('0' + (ns % 100) / 10) << static_cast<char>('0' + ns % 10);
}

/// One trace event as a Chrome trace-event JSON object (no separator).
void write_event(std::ostream& os, const trace_event& ev)
{
    const char* ph = nullptr;
    switch (ev.type) {
    case event_type::begin: ph = "B"; break;
    case event_type::end: ph = "E"; break;
    case event_type::instant: ph = "i"; break;
    case event_type::counter: ph = "C"; break;
    case event_type::async_begin: ph = "b"; break;
    case event_type::async_end: ph = "e"; break;
    }
    os << "{\"ph\":\"" << ph << "\",\"name\":";
    json_escape(os, ev.name);
    os << ",\"cat\":";
    json_escape(os, ev.category ? ev.category : "default");
    os << ",\"pid\":1,\"tid\":" << ev.tid << ",\"ts\":";
    write_ts_us(os, ev.ts_ns);
    switch (ev.type) {
    case event_type::instant:
        os << ",\"s\":\"t\"";
        break;
    case event_type::counter:
        os << ",\"args\":{\"value\":" << ev.value << '}';
        break;
    case event_type::async_begin:
    case event_type::async_end:
        os << ",\"id\":\"" << static_cast<std::uint64_t>(ev.value) << '"';
        break;
    default:
        break;
    }
    os << '}';
}

}  // namespace

std::size_t tracer::write_json(std::ostream& os) const
{
    std::vector<trace_event> evs = collect();

    // A ring wrap can strand "E" events whose "B" was overwritten; an
    // unmatched E confuses the viewer's stack reconstruction, so drop any E
    // with no open B on its thread.  (Unclosed Bs are fine — trace viewers
    // auto-close them at the end of the trace.)
    std::vector<std::uint32_t> depth;
    std::vector<trace_event> kept;
    kept.reserve(evs.size());
    for (const trace_event& ev : evs) {
        if (ev.tid >= depth.size()) depth.resize(ev.tid + 1, 0);
        if (ev.type == event_type::begin) ++depth[ev.tid];
        if (ev.type == event_type::end) {
            if (depth[ev.tid] == 0) continue;
            --depth[ev.tid];
        }
        kept.push_back(ev);
    }

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first) os << ',';
        first = false;
        os << '\n';
    };

    sep();
    os << R"({"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"osss_jpeg2000"}})";
    {
        std::lock_guard lk{rings_m_};
        for (const auto& r : rings_) {
            if (const char* tn = r->thread_name()) {
                sep();
                os << R"({"ph":"M","name":"thread_name","pid":1,"tid":)" << r->tid()
                   << R"(,"args":{"name":)";
                json_escape(os, tn);
                os << "}}";
            }
        }
    }

    std::size_t written = 0;
    for (const trace_event& ev : kept) {
        sep();
        write_event(os, ev);
        ++written;
    }
    os << "\n]}\n";
    return written;
}

tracer::tail_result tracer::write_json_tail(std::ostream& os,
                                            std::uint64_t since_ns) const
{
    // Metadata first, so a tail joined mid-run labels its tracks; repeating
    // these across chunks is harmless (the viewer just re-applies them).
    os << R"({"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"osss_jpeg2000"}})"
       << ",\n";
    {
        std::lock_guard lk{rings_m_};
        for (const auto& r : rings_) {
            if (const char* tn = r->thread_name()) {
                os << R"({"ph":"M","name":"thread_name","pid":1,"tid":)" << r->tid()
                   << R"(,"args":{"name":)";
                json_escape(os, tn);
                os << "}},\n";
            }
        }
    }
    // No B-depth filtering here: an E whose B went out in an earlier chunk is
    // legitimate in a tail, and the concatenated stream reconstructs fine.
    const std::vector<trace_event> evs = collect_since(since_ns);
    for (const trace_event& ev : evs) {
        write_event(os, ev);
        os << ",\n";
    }
    return {evs.size(), next_cursor(evs, since_ns)};
}

std::size_t tracer::write_json_file(const std::string& path) const
{
    std::ofstream out{path};
    if (!out) throw std::runtime_error{"tracer: cannot open " + path};
    const std::size_t n = write_json(out);
    out.flush();
    if (!out) throw std::runtime_error{"tracer: write failed for " + path};
    return n;
}

}  // namespace obs
