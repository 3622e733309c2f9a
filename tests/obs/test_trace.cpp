// obs tracer: ring-buffer wraparound, cross-thread drain, concurrent span
// emission (the TSan target), and validity of the emitted Chrome trace-event
// JSON (parsed by a small standalone JSON parser below — if Perfetto can't
// load the file, these tests should already have failed).
#include <obs/obs.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator (value grammar only, no semantics).

class json_parser {
public:
    explicit json_parser(std::string_view s) : s_{s} {}

    bool valid()
    {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool value()
    {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }
    bool object()
    {
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }
    bool array()
    {
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }
    bool string()
    {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '\\') {
                if (pos_ + 1 >= s_.size()) return false;
                const char e = s_[pos_ + 1];
                if (e == 'u') {
                    if (pos_ + 5 >= s_.size()) return false;
                    for (int i = 2; i <= 5; ++i)
                        if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
                            return false;
                    pos_ += 6;
                    continue;
                }
                if (std::string_view{"\"\\/bfnrt"}.find(e) == std::string_view::npos)
                    return false;
                pos_ += 2;
                continue;
            }
            if (c == '"') { ++pos_; return true; }
            if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
            ++pos_;
        }
        return false;
    }
    bool number()
    {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        return pos_ > start && std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
    }
    bool literal(std::string_view lit)
    {
        if (s_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }
    void skip_ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' || s_[pos_] == '\r'))
            ++pos_;
    }
    [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    std::string_view s_;
    std::size_t pos_ = 0;
};

// The tracer is a process-global singleton whose rings persist across test
// cases, so every test filters by names unique to it.

std::size_t count_events(const char* name)
{
    const auto evs = obs::tracer::instance().collect();
    return static_cast<std::size_t>(
        std::count_if(evs.begin(), evs.end(),
                      [&](const obs::trace_event& e) {
                          return e.name && std::string_view{e.name} == name;
                      }));
}

TEST(Tracer, DirectEmissionRoundTrips)
{
    auto& tr = obs::tracer::instance();
    tr.begin("test", "rt_span");
    tr.end("test", "rt_span");
    tr.instant("test", "rt_instant");
    tr.counter("test", "rt_counter", 42);
    const auto evs = tr.collect();
    bool found_b = false, found_e = false, found_c = false;
    std::uint64_t ts_b = 0;
    for (const auto& e : evs) {
        if (!e.name) continue;
        const std::string_view n{e.name};
        if (n == "rt_span" && e.type == obs::event_type::begin) {
            found_b = true;
            ts_b = e.ts_ns;
        }
        if (n == "rt_span" && e.type == obs::event_type::end) {
            found_e = true;
            EXPECT_GE(e.ts_ns, ts_b);  // collect() sorts by timestamp
        }
        if (n == "rt_counter") {
            found_c = true;
            EXPECT_EQ(e.value, 42);
        }
    }
    EXPECT_TRUE(found_b);
    EXPECT_TRUE(found_e);
    EXPECT_TRUE(found_c);
}

TEST(Tracer, MacrosAreGatedByRuntimeEnable)
{
    auto& tr = obs::tracer::instance();
    tr.set_enabled(false);
    OBS_TRACE_INSTANT("test", "gated_off");
    EXPECT_EQ(count_events("gated_off"), 0u);

    tr.set_enabled(true);
    OBS_TRACE_INSTANT("test", "gated_on");
    tr.set_enabled(false);
    if (obs::tracing_compiled())
        EXPECT_EQ(count_events("gated_on"), 1u);
    else
        EXPECT_EQ(count_events("gated_on"), 0u);  // OBS_TRACING=OFF build
}

TEST(Tracer, ScopedSpanBalancesBeginEnd)
{
    if (!obs::tracing_compiled()) GTEST_SKIP() << "built with OBS_TRACING=OFF";
    auto& tr = obs::tracer::instance();
    tr.set_enabled(true);
    {
        OBS_TRACE_SCOPE("test", "scoped_piece");
        OBS_TRACE_SCOPE("test", "scoped_piece");  // nests
    }
    tr.set_enabled(false);
    const auto evs = tr.collect();
    int balance = 0, seen = 0;
    for (const auto& e : evs) {
        if (!e.name || std::string_view{e.name} != "scoped_piece") continue;
        ++seen;
        balance += e.type == obs::event_type::begin ? 1 : -1;
    }
    EXPECT_EQ(seen, 4);
    EXPECT_EQ(balance, 0);
}

TEST(Tracer, StageTimerAccumulatesIntoCounter)
{
    obs::counter ns;
    {
        obs::stage_timer t{nullptr, nullptr, ns};
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(ns.value(), 1'000'000u);  // at least 1 ms measured
}

TEST(Tracer, RingWrapsKeepingTheNewestEvents)
{
    auto& tr = obs::tracer::instance();
    constexpr std::uint64_t k_extra = 500;
    constexpr std::uint64_t n = obs::detail::event_ring::k_capacity + k_extra;
    for (std::uint64_t i = 0; i < n; ++i)
        tr.counter("test", "wrap_seq", static_cast<std::int64_t>(i));
    const auto evs = tr.collect();
    std::vector<std::int64_t> vals;
    for (const auto& e : evs)
        if (e.name && std::string_view{e.name} == "wrap_seq") vals.push_back(e.value);
    ASSERT_FALSE(vals.empty());
    EXPECT_LE(vals.size(), obs::detail::event_ring::k_capacity);
    // The newest event always survives; everything retained is from the tail.
    EXPECT_EQ(vals.back(), static_cast<std::int64_t>(n - 1));
    EXPECT_GE(vals.front(), static_cast<std::int64_t>(k_extra));
    EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()));
    EXPECT_GT(tr.get_stats().overwritten, 0u);
}

TEST(Tracer, CrossThreadDrainSeesOtherThreadsEvents)
{
    auto& tr = obs::tracer::instance();
    std::uint32_t main_tid = 0xffffffff;
    tr.instant("test", "xt_main");
    std::thread t{[&tr] {
        tr.set_thread_name("xt-worker");
        for (int i = 0; i < 100; ++i) tr.instant("test", "xt_worker");
    }};
    t.join();
    const auto evs = tr.collect();
    std::size_t worker_events = 0;
    std::uint32_t worker_tid = 0xffffffff;
    for (const auto& e : evs) {
        if (!e.name) continue;
        if (std::string_view{e.name} == "xt_main") main_tid = e.tid;
        if (std::string_view{e.name} == "xt_worker") {
            ++worker_events;
            worker_tid = e.tid;
        }
    }
    EXPECT_EQ(worker_events, 100u);
    EXPECT_NE(worker_tid, main_tid);  // each thread gets its own track

    // The worker's ring outlives the thread and carries its name.
    std::stringstream ss;
    tr.write_json(ss);
    EXPECT_NE(ss.str().find("xt-worker"), std::string::npos);
}

// The TSan target: several threads hammer spans while another thread drains
// concurrently.  Correctness of what the drain sees is covered elsewhere;
// here the property is "no race, no crash, no torn event".
TEST(Tracer, ConcurrentEmissionAndDrainIsClean)
{
    auto& tr = obs::tracer::instance();
    constexpr int k_threads = 4;
    constexpr int k_events = 20000;
    std::atomic<bool> stop{false};
    std::thread drainer{[&] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto evs = tr.collect();
            for (const auto& e : evs) {
                // A torn slot would show a bogus type; valid events only.
                EXPECT_LE(static_cast<int>(e.type),
                          static_cast<int>(obs::event_type::async_end));
            }
            std::this_thread::yield();
        }
    }};
    std::vector<std::thread> emitters;
    for (int t = 0; t < k_threads; ++t)
        emitters.emplace_back([&tr, t] {
            for (int i = 0; i < k_events; ++i) {
                tr.begin("test", "conc_span");
                tr.counter("test", "conc_counter", t * k_events + i);
                tr.end("test", "conc_span");
            }
        });
    for (auto& t : emitters) t.join();
    stop.store(true, std::memory_order_release);
    drainer.join();
}

TEST(TraceJson, OutputParsesAndDropsUnmatchedEnds)
{
    auto& tr = obs::tracer::instance();
    tr.set_thread_name("json \"quoted\\name");  // exercise escaping
    tr.begin("test", "json_span");
    tr.instant("test", "json_instant");
    tr.counter("test", "json_counter", -7);
    tr.async_begin("test", "json_async", 99);
    tr.async_end("test", "json_async", 99);
    tr.end("test", "json_span");

    std::stringstream ss;
    const std::size_t written = tr.write_json(ss);
    const std::string json = ss.str();
    EXPECT_GT(written, 0u);
    EXPECT_TRUE(json_parser{json}.valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata present
    EXPECT_NE(json.find("json_span"), std::string::npos);
}

TEST(TraceJson, WriteJsonFileRoundTrips)
{
    auto& tr = obs::tracer::instance();
    tr.instant("test", "file_instant");
    const std::string path = testing::TempDir() + "obs_trace_test.trace.json";
    const std::size_t written = tr.write_json_file(path);
    EXPECT_GT(written, 0u);
    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(json_parser{ss.str()}.valid());

    EXPECT_THROW(tr.write_json_file("/nonexistent-dir/x.trace.json"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Cursor drains (the ops plane's /trace tail and rolling aggregation feed).

TEST(TraceCursor, SuccessiveBatchesAreDisjoint)
{
    auto& tr = obs::tracer::instance();
    tr.instant("test", "cursor_a");
    tr.instant("test", "cursor_a");
    const auto batch1 = tr.collect_since(0);
    const std::uint64_t cursor = obs::tracer::next_cursor(batch1, 0);
    ASSERT_FALSE(batch1.empty());
    EXPECT_EQ(cursor, batch1.back().ts_ns + 1);

    // Separate the phases by more than the clock granularity so the second
    // batch's events cannot share a timestamp with the first batch's newest.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tr.instant("test", "cursor_b");
    const auto batch2 = tr.collect_since(cursor);
    for (const auto& e : batch2) EXPECT_GE(e.ts_ns, cursor);
    const auto in_batch = [](const std::vector<obs::trace_event>& b, const char* name) {
        return std::count_if(b.begin(), b.end(), [&](const obs::trace_event& e) {
            return e.name && std::string_view{e.name} == name;
        });
    };
    EXPECT_EQ(in_batch(batch1, "cursor_a"), 2);
    EXPECT_EQ(in_batch(batch2, "cursor_a"), 0);  // disjoint: not re-delivered
    EXPECT_EQ(in_batch(batch2, "cursor_b"), 1);

    // Empty follow-up leaves the cursor unchanged.
    const auto batch3 = tr.collect_since(obs::tracer::next_cursor(batch2, cursor));
    const std::uint64_t c3 = obs::tracer::next_cursor(batch3, 12345);
    if (batch3.empty()) {
        EXPECT_EQ(c3, 12345u);
    }
}

TEST(TraceCursor, CursorDrainEqualsFilteredFullDrain)
{
    // Three single-producer rings, each filled by its own thread, over one
    // timestamp range: the third ring gets more events than it holds, so it
    // wraps, and its stamps repeat (about three events per nanosecond value),
    // which also ties with the other rings' stamps.  From any cursor, the
    // drain must be the full drain filtered to ts_ns >= cursor, element by
    // element, in order.
    using obs::detail::event_ring;
    constexpr std::uint64_t k_t0 = 1000, k_range = 12'000;
    const std::size_t counts[] = {500, 2000, event_ring::k_capacity + 5000};
    std::vector<std::shared_ptr<event_ring>> rings;
    std::vector<std::thread> emitters;
    for (std::uint32_t t = 0; t < 3; ++t) {
        rings.push_back(std::make_shared<event_ring>(t));
        emitters.emplace_back([ring = rings.back(), n = counts[t]] {
            for (std::size_t i = 0; i < n; ++i) {
                const auto type = i % 5 == 3   ? obs::event_type::instant
                                  : i % 5 == 4 ? obs::event_type::counter
                                  : i % 2 == 0 ? obs::event_type::async_begin
                                               : obs::event_type::async_end;
                ring->push(type, "test", "ev", k_t0 + i * k_range / n,
                           static_cast<std::int64_t>(i));
            }
        });
    }
    for (auto& e : emitters) e.join();
    ASSERT_GT(rings[2]->overwritten(), 0u);

    const auto full = obs::detail::collect_since(rings, 0);
    ASSERT_EQ(full.size(), 500u + 2000u + event_ring::k_capacity);
    const auto same = [](const obs::trace_event& a, const obs::trace_event& b) {
        return a.ts_ns == b.ts_ns && a.type == b.type && a.tid == b.tid &&
               a.value == b.value && a.name == b.name && a.category == b.category;
    };
    // The merge equals a stable sort of the rings' runs, ties included.
    std::vector<obs::trace_event> sorted;
    for (const auto& r : rings) r->drain(sorted, 0);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const obs::trace_event& a, const obs::trace_event& b) {
                         return a.ts_ns < b.ts_ns;
                     });
    ASSERT_TRUE(std::equal(full.begin(), full.end(), sorted.begin(), sorted.end(), same));
    // A stamp that at least three resident events share.
    std::uint64_t shared = 0;
    for (std::size_t i = 2; i < full.size() && shared == 0; ++i)
        if (full[i].ts_ns == full[i - 2].ts_ns) shared = full[i].ts_ns;
    ASSERT_NE(shared, 0u);
    // The wrapped ring's oldest resident event: 5000 events were overwritten.
    const std::uint64_t wrapped_oldest = k_t0 + 5000 * k_range / counts[2];
    const std::uint64_t cursors[] = {0, full[full.size() / 2].ts_ns, shared,
                                     wrapped_oldest - 100, full.back().ts_ns + 1};
    for (const std::uint64_t c : cursors) {
        std::vector<obs::trace_event> want;
        for (const auto& ev : full)
            if (ev.ts_ns >= c) want.push_back(ev);
        const auto got = obs::detail::collect_since(rings, c);
        ASSERT_EQ(got.size(), want.size()) << "cursor " << c;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_TRUE(same(got[i], want[i])) << "cursor " << c << ", event " << i;
    }
    EXPECT_TRUE(obs::detail::collect_since(rings, full.back().ts_ns + 1).empty());
}

// Satellite of the ops plane: drains never consume.  A cursor tail and the
// end-of-run full dump must each see every event, with no cross-stealing.
TEST(TraceCursor, DrainsAreNonDestructiveAcrossConsumers)
{
    auto& tr = obs::tracer::instance();
    tr.instant("test", "coexist_ev");
    // Consumer 1: cursor tail reads it.
    const auto tail1 = tr.collect_since(0);
    const auto seen = std::count_if(
        tail1.begin(), tail1.end(), [](const obs::trace_event& e) {
            return e.name && std::string_view{e.name} == "coexist_ev";
        });
    EXPECT_EQ(seen, 1);
    // Consumer 2: the full JSON dump still contains it afterwards.
    std::stringstream ss;
    tr.write_json(ss);
    EXPECT_NE(ss.str().find("coexist_ev"), std::string::npos);
    // Consumer 3: a second cursor pass from zero sees it again too.
    const auto tail2 = tr.collect_since(0);
    const auto seen2 = std::count_if(
        tail2.begin(), tail2.end(), [](const obs::trace_event& e) {
            return e.name && std::string_view{e.name} == "coexist_ev";
        });
    EXPECT_EQ(seen2, 1);
}

TEST(TraceCursor, TailChunksConcatenateIntoLoadableJson)
{
    auto& tr = obs::tracer::instance();
    tr.instant("test", "tail_c1");
    std::stringstream chunk1;
    const auto r1 = tr.write_json_tail(chunk1, 0);
    EXPECT_GT(r1.events, 0u);
    EXPECT_GT(r1.next_since_ns, 0u);

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tr.instant("test", "tail_c2");
    std::stringstream chunk2;
    const auto r2 = tr.write_json_tail(chunk2, r1.next_since_ns);
    EXPECT_GT(r2.events, 0u);
    EXPECT_GT(r2.next_since_ns, r1.next_since_ns);

    // The second chunk must not repeat the first chunk's events (metadata
    // records are re-emitted by design).
    EXPECT_EQ(chunk2.str().find("tail_c1"), std::string::npos);
    EXPECT_NE(chunk2.str().find("tail_c2"), std::string::npos);

    // Chrome JSON Array Format: "[" + chunks tolerates the trailing comma and
    // missing "]"; closing it by hand must yield strictly valid JSON.
    std::string concat = "[\n" + chunk1.str() + chunk2.str();
    const auto comma = concat.find_last_of(',');
    ASSERT_NE(comma, std::string::npos);
    concat = concat.substr(0, comma) + "\n]";
    EXPECT_TRUE(json_parser{concat}.valid()) << concat.substr(0, 400);
}

TEST(Tracer, InternReturnsStablePointers)
{
    auto& tr = obs::tracer::instance();
    const char* a = tr.intern("some dynamic name");
    const char* b = tr.intern(std::string{"some dynamic name"});
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "some dynamic name");
}

TEST(Tracer, NextIdIsMonotonic)
{
    auto& tr = obs::tracer::instance();
    const auto a = tr.next_id();
    const auto b = tr.next_id();
    EXPECT_GT(b, a);
}

}  // namespace
