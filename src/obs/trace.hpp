// obs/trace.hpp — low-overhead span tracer with Chrome trace-event output.
//
// The write path is a per-thread lock-free ring buffer: emitting an event is
// five relaxed atomic stores plus one release store into the calling thread's
// own ring (no shared cache line, no lock, no allocation).  A drain — from any
// thread, at any time — walks every registered ring and serialises the
// surviving events to Chrome trace-event JSON, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.  Rings overwrite their oldest
// events on wrap, so a long run keeps the most recent window per thread.
//
// Two switches, layered:
//   * compile time — building with OBS_TRACING_ENABLED=0 (cmake
//     -DOBS_TRACING=OFF) turns every OBS_TRACE_* macro into nothing: no
//     branch, no string, no code.
//   * run time — tracing starts disabled; `tracer::set_enabled(true)` arms
//     it.  Disarmed macros cost one relaxed atomic load.
//
// Name and category arguments must have static storage duration (string
// literals).  For dynamic names (process names, event names) intern them once
// via `tracer::intern` and emit the returned pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#ifndef OBS_TRACING_ENABLED
#define OBS_TRACING_ENABLED 1
#endif

namespace obs {

namespace detail {

extern std::atomic<bool> g_trace_enabled;

}  // namespace detail

/// True when the tracer is armed (cheap: one relaxed load).
[[nodiscard]] inline bool tracing_enabled() noexcept
{
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// True when the OBS_TRACE_* macros were compiled in at all.
[[nodiscard]] constexpr bool tracing_compiled() noexcept
{
    return OBS_TRACING_ENABLED != 0;
}

enum class event_type : std::uint8_t {
    begin,        ///< "B" — opens a synchronous span on this thread
    end,          ///< "E" — closes the innermost open span on this thread
    instant,      ///< "i" — a point event
    counter,      ///< "C" — a sample on a named counter track
    async_begin,  ///< "b" — opens an async span correlated by id (cross-thread)
    async_end,    ///< "e" — closes the async span with the same id
};

/// One decoded trace event (drain-side representation).
struct trace_event {
    std::uint64_t ts_ns = 0;       ///< nanoseconds since tracer epoch
    const char* name = nullptr;    ///< static / interned string
    const char* category = nullptr;
    event_type type = event_type::instant;
    std::uint32_t tid = 0;         ///< tracer-assigned thread index
    std::int64_t value = 0;        ///< counter value or async span id
};

namespace detail {

/// Single-producer ring of trace events.  The owning thread is the only
/// writer; drains may run concurrently from any thread.  Every slot word is a
/// relaxed atomic (no torn reads, clean under TSan) and carries a sequence
/// number: a reader accepts a slot only when the sequence it sees before and
/// after reading the payload matches the index it expects, so a slot being
/// overwritten mid-drain is skipped, never misreported.
class event_ring {
public:
    static constexpr std::size_t k_capacity = 1u << 15;  ///< events per thread

    explicit event_ring(std::uint32_t tid) noexcept : tid_{tid} {}

    void push(event_type t, const char* cat, const char* name, std::uint64_t ts_ns,
              std::int64_t value) noexcept
    {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        slot& s = slots_[h & (k_capacity - 1)];
        // Seqlock write protocol: invalidate, fence, payload, publish.  The
        // release fence makes the invalidation visible to any drain that
        // observes one of the new payload words (the drain re-checks the
        // sequence behind an acquire fence), so a slot being overwritten is
        // skipped, never misread.
        s.seq.store(0, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
        s.ts_ns.store(ts_ns, std::memory_order_relaxed);
        s.name.store(reinterpret_cast<std::uintptr_t>(name), std::memory_order_relaxed);
        s.cat.store(reinterpret_cast<std::uintptr_t>(cat), std::memory_order_relaxed);
        s.type.store(static_cast<std::uint64_t>(t), std::memory_order_relaxed);
        s.value.store(static_cast<std::uint64_t>(value), std::memory_order_relaxed);
        s.seq.store(h + 1, std::memory_order_release);
        head_.store(h + 1, std::memory_order_release);
    }

    /// Append every event still resident in the ring with ts_ns >= since_ns
    /// to `out` (oldest first), reading no slot older than the newest event
    /// before the cursor.
    void drain(std::vector<trace_event>& out, std::uint64_t since_ns) const;

    [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
    [[nodiscard]] std::uint64_t pushed() const noexcept
    {
        return head_.load(std::memory_order_acquire);
    }
    /// Events overwritten before any drain could see them.
    [[nodiscard]] std::uint64_t overwritten() const noexcept
    {
        const std::uint64_t h = pushed();
        return h > k_capacity ? h - k_capacity : 0;
    }

    void set_thread_name(const char* name) noexcept
    {
        thread_name_.store(reinterpret_cast<std::uintptr_t>(name),
                           std::memory_order_relaxed);
    }
    [[nodiscard]] const char* thread_name() const noexcept
    {
        return reinterpret_cast<const char*>(
            thread_name_.load(std::memory_order_relaxed));
    }

private:
    struct slot {
        std::atomic<std::uint64_t> seq{0};  ///< 0 = empty, else write index + 1
        std::atomic<std::uint64_t> ts_ns{0};
        std::atomic<std::uintptr_t> name{0};
        std::atomic<std::uintptr_t> cat{0};
        std::atomic<std::uint64_t> type{0};
        std::atomic<std::uint64_t> value{0};
    };

    std::atomic<std::uint64_t> head_{0};
    std::uint32_t tid_;
    std::atomic<std::uintptr_t> thread_name_{0};
    std::vector<slot> slots_{k_capacity};
};

/// The cursor drain of tracer::collect_since over `rings`: each ring's run at
/// or after `since_ns`, merged by timestamp, ties in the order of `rings`.
[[nodiscard]] std::vector<trace_event> collect_since(
    std::span<const std::shared_ptr<event_ring>> rings, std::uint64_t since_ns);

}  // namespace detail

/// Process-wide tracer: owns the per-thread rings and the JSON serialiser.
class tracer {
public:
    static tracer& instance();

    /// Arm / disarm event collection.  Cheap to toggle at runtime.
    void set_enabled(bool on) noexcept
    {
        detail::g_trace_enabled.store(on && tracing_compiled(),
                                      std::memory_order_relaxed);
    }
    [[nodiscard]] bool enabled() const noexcept { return tracing_enabled(); }

    /// Stable pointer for a dynamic string, valid for the process lifetime.
    const char* intern(std::string_view s);

    /// Label the calling thread's track in the trace viewer.
    void set_thread_name(std::string_view name);

    // Emission primitives.  The macros below are the intended entry points;
    // they gate on tracing_enabled() before calling in.
    void begin(const char* cat, const char* name) noexcept
    {
        emit(event_type::begin, cat, name, 0);
    }
    void end(const char* cat, const char* name) noexcept
    {
        emit(event_type::end, cat, name, 0);
    }
    void instant(const char* cat, const char* name) noexcept
    {
        emit(event_type::instant, cat, name, 0);
    }
    void counter(const char* cat, const char* name, std::int64_t value) noexcept
    {
        emit(event_type::counter, cat, name, value);
    }
    void async_begin(const char* cat, const char* name, std::uint64_t id) noexcept
    {
        emit(event_type::async_begin, cat, name, static_cast<std::int64_t>(id));
    }
    void async_end(const char* cat, const char* name, std::uint64_t id) noexcept
    {
        emit(event_type::async_end, cat, name, static_cast<std::int64_t>(id));
    }

    /// Drain every ring and write one Chrome trace-event JSON object.
    /// Returns the number of events written.  Safe while emission continues
    /// (in-flight events may be skipped); call with workers quiesced for a
    /// complete picture.
    std::size_t write_json(std::ostream& os) const;
    /// write_json to a file; throws std::runtime_error on I/O failure.
    std::size_t write_json_file(const std::string& path) const;

    /// Collect the raw events (mainly for tests).
    [[nodiscard]] std::vector<trace_event> collect() const;

    /// Cursor drain: every resident event with ts_ns >= since_ns, oldest
    /// first (ties in ring-registration order).  Its cost follows the events
    /// it returns, not the rings' resident ones: each ring is read back from
    /// its head only as far as the cursor, and the per-ring runs, already in
    /// order, are merged.  Drains are NON-DESTRUCTIVE — events stay in their
    /// rings until overwritten by ring wrap — so any number of cursor
    /// consumers (live /trace tails, the rolling aggregator) and the
    /// end-of-run write_json_file() coexist: none of them can steal events
    /// from another, and the only loss mode is the pre-existing ring
    /// overwrite.  Use next_cursor() on the result to advance: batches from a
    /// monotonically advancing cursor are disjoint by construction.
    [[nodiscard]] std::vector<trace_event> collect_since(std::uint64_t since_ns) const;

    /// The cursor that makes the next collect_since() disjoint from a batch
    /// just collected: max timestamp + 1, or `prev` for an empty batch.
    [[nodiscard]] static std::uint64_t next_cursor(const std::vector<trace_event>& batch,
                                                   std::uint64_t prev) noexcept
    {
        return batch.empty() ? prev : batch.back().ts_ns + 1;
    }

    struct tail_result {
        std::size_t events = 0;          ///< events written to the stream
        std::uint64_t next_since_ns = 0; ///< pass as since_ns of the next tail
    };

    /// Streaming tail: write the events at/after `since_ns` as Chrome
    /// trace-event *array elements* — one JSON object per line, each followed
    /// by a comma, no enclosing brackets.  A consumer that prepends "[" to
    /// the first chunk and concatenates subsequent chunks gets the JSON
    /// Array Format, which Perfetto loads as-is (the trailing comma and the
    /// missing "]" are explicitly tolerated by that format).  Thread-name
    /// metadata records are re-emitted in every chunk so a tail joined
    /// mid-run still labels its tracks.
    tail_result write_json_tail(std::ostream& os, std::uint64_t since_ns) const;

    struct stats {
        std::size_t threads = 0;      ///< rings registered so far
        std::uint64_t pushed = 0;     ///< events ever emitted
        std::uint64_t overwritten = 0;///< lost to ring wrap before a drain
    };
    [[nodiscard]] stats get_stats() const;

    /// Monotonic id source for async (cross-thread) spans.
    [[nodiscard]] std::uint64_t next_id() noexcept
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /// Nanoseconds since the tracer singleton was constructed.
    [[nodiscard]] std::uint64_t now_ns() const noexcept;

private:
    tracer();

    void emit(event_type t, const char* cat, const char* name,
              std::int64_t value) noexcept;
    detail::event_ring& ring_for_this_thread();

    std::uint64_t epoch_ns_;  ///< steady-clock origin of every timestamp
    std::atomic<std::uint64_t> next_id_{0};

    mutable std::mutex rings_m_;
    std::vector<std::shared_ptr<detail::event_ring>> rings_;

    mutable std::mutex intern_m_;
    std::unordered_set<std::string> interned_;
};

/// RAII span: begin at construction, end at destruction, on this thread's
/// track.  Arms once — toggling the tracer mid-span cannot unbalance B/E.
class scoped_span {
public:
    scoped_span(const char* cat, const char* name) noexcept
        : cat_{cat}, name_{name},
          armed_{tracing_compiled() && cat != nullptr && name != nullptr &&
                 tracing_enabled()}
    {
        if (armed_) tracer::instance().begin(cat_, name_);
    }
    ~scoped_span()
    {
        if (armed_) tracer::instance().end(cat_, name_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    const char* cat_;
    const char* name_;
    bool armed_;
};

}  // namespace obs

// clang-format off
#if OBS_TRACING_ENABLED
#define OBS_DETAIL_CONCAT2(a, b) a##b
#define OBS_DETAIL_CONCAT(a, b) OBS_DETAIL_CONCAT2(a, b)
/// Span covering the rest of the enclosing scope.
#define OBS_TRACE_SCOPE(cat, name) \
    ::obs::scoped_span OBS_DETAIL_CONCAT(obs_scope_, __LINE__){cat, name}
#define OBS_TRACE_BEGIN(cat, name) \
    do { if (::obs::tracing_enabled()) ::obs::tracer::instance().begin(cat, name); } while (0)
#define OBS_TRACE_END(cat, name) \
    do { if (::obs::tracing_enabled()) ::obs::tracer::instance().end(cat, name); } while (0)
#define OBS_TRACE_INSTANT(cat, name) \
    do { if (::obs::tracing_enabled()) ::obs::tracer::instance().instant(cat, name); } while (0)
/// Sample on a counter track (queue depth, occupancy, ...).
#define OBS_TRACE_COUNTER(cat, name, value) \
    do { if (::obs::tracing_enabled()) \
        ::obs::tracer::instance().counter(cat, name, static_cast<std::int64_t>(value)); } while (0)
/// Async span: correlated by id, may begin and end on different threads.
#define OBS_TRACE_ASYNC_BEGIN(cat, name, id) \
    do { if (::obs::tracing_enabled()) \
        ::obs::tracer::instance().async_begin(cat, name, static_cast<std::uint64_t>(id)); } while (0)
#define OBS_TRACE_ASYNC_END(cat, name, id) \
    do { if (::obs::tracing_enabled()) \
        ::obs::tracer::instance().async_end(cat, name, static_cast<std::uint64_t>(id)); } while (0)
#else
#define OBS_TRACE_SCOPE(cat, name) do { } while (0)
#define OBS_TRACE_BEGIN(cat, name) do { } while (0)
#define OBS_TRACE_END(cat, name) do { } while (0)
#define OBS_TRACE_INSTANT(cat, name) do { } while (0)
#define OBS_TRACE_COUNTER(cat, name, value) do { } while (0)
#define OBS_TRACE_ASYNC_BEGIN(cat, name, id) do { } while (0)
#define OBS_TRACE_ASYNC_END(cat, name, id) do { } while (0)
#endif
// clang-format on
