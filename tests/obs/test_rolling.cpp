// obs::rolling_stats: pairing drained trace events into per-stage windowed
// distributions — sync innermost-first pairing, async pairing by (name, id)
// with names compared by content, pairing state across batch boundaries,
// window expiry, and the stage cap.
#include <obs/rolling.hpp>

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace {

constexpr std::uint64_t k_s = 1'000'000'000ull;  // ns per second

obs::trace_event ev(std::uint64_t ts, const char* name, obs::event_type t,
                    std::uint32_t tid = 0, std::int64_t value = 0)
{
    obs::trace_event e;
    e.ts_ns = ts;
    e.name = name;
    e.category = "test";
    e.type = t;
    e.tid = tid;
    e.value = value;
    return e;
}

TEST(RollingStats, SingleSpanShowsUpInEveryCoveringWindow)
{
    obs::rolling_stats rs;
    const std::uint64_t t0 = 100 * k_s;
    rs.consume({ev(t0, "tier1", obs::event_type::begin),
                ev(t0 + 5'000'000, "tier1", obs::event_type::end)});

    const auto w1 = rs.window("tier1", 1, t0 + 5'000'000);
    EXPECT_EQ(w1.count, 1u);
    EXPECT_DOUBLE_EQ(w1.rate_per_s, 1.0);
    EXPECT_DOUBLE_EQ(w1.mean_ns, 5'000'000.0);
    EXPECT_EQ(w1.max_ns, 5'000'000u);
    EXPECT_GT(w1.p50_ns, 0.0);
    EXPECT_LE(w1.p50_ns, 5'000'000.0);  // quantile never exceeds the max sample
    EXPECT_LE(w1.p99_ns, 5'000'000.0);

    const auto w10 = rs.window("tier1", 10, t0 + 5'000'000);
    EXPECT_EQ(w10.count, 1u);
    EXPECT_DOUBLE_EQ(w10.rate_per_s, 0.1);

    // Unknown stage: all-zero stats, no throw.
    const auto none = rs.window("no_such_stage", 10);
    EXPECT_EQ(none.count, 0u);
    EXPECT_EQ(none.p99_ns, 0.0);
}

TEST(RollingStats, NestedSyncSpansPairInnermostFirst)
{
    obs::rolling_stats rs;
    const std::uint64_t t0 = 7 * k_s;
    rs.consume({
        ev(t0, "outer", obs::event_type::begin),
        ev(t0 + 100, "inner", obs::event_type::begin),
        ev(t0 + 300, "inner", obs::event_type::end),   // closes inner: 200 ns
        ev(t0 + 1000, "outer", obs::event_type::end),  // closes outer: 1000 ns
    });
    EXPECT_EQ(rs.window("inner", 1, t0 + 1000).max_ns, 200u);
    EXPECT_EQ(rs.window("outer", 1, t0 + 1000).max_ns, 1000u);
    EXPECT_EQ(rs.get_totals().spans, 2u);
    EXPECT_EQ(rs.get_totals().open_spans, 0u);
}

TEST(RollingStats, PairingSurvivesBatchBoundaries)
{
    obs::rolling_stats rs;
    const std::uint64_t t0 = 42 * k_s;
    // The B arrives in one drained batch, its E in the next (the cursor
    // advanced between aggregation ticks mid-span).
    rs.consume({ev(t0, "split_span", obs::event_type::begin)});
    EXPECT_EQ(rs.get_totals().open_spans, 1u);
    EXPECT_EQ(rs.window("split_span", 1, t0).count, 0u);  // not complete yet
    rs.consume({ev(t0 + 500, "split_span", obs::event_type::end)});
    EXPECT_EQ(rs.get_totals().open_spans, 0u);
    EXPECT_EQ(rs.window("split_span", 1, t0 + 500).count, 1u);
    EXPECT_EQ(rs.window("split_span", 1, t0 + 500).max_ns, 500u);
}

TEST(RollingStats, UnmatchedEndIsCountedNotCredited)
{
    obs::rolling_stats rs;
    rs.consume({ev(9 * k_s, "orphan", obs::event_type::end)});
    EXPECT_EQ(rs.get_totals().unmatched_ends, 1u);
    EXPECT_EQ(rs.get_totals().spans, 0u);
    EXPECT_TRUE(rs.stages().empty());  // no stage ring allocated for it
}

TEST(RollingStats, AsyncSpansPairByNameAndIdAcrossThreads)
{
    obs::rolling_stats rs;
    const std::uint64_t t0 = 11 * k_s;
    rs.consume({
        ev(t0, "job", obs::event_type::async_begin, /*tid=*/1, /*value=*/77),
        ev(t0, "job", obs::event_type::async_begin, /*tid=*/1, /*value=*/78),
        // Ends land on a different thread; id correlates them, not the tid.
        ev(t0 + 400, "job", obs::event_type::async_end, /*tid=*/2, /*value=*/77),
    });
    EXPECT_EQ(rs.window("job", 1, t0 + 400).count, 1u);
    EXPECT_EQ(rs.window("job", 1, t0 + 400).max_ns, 400u);
    EXPECT_EQ(rs.get_totals().open_spans, 1u);  // id 78 still open

    // An async end with an unknown id is an unmatched end.
    rs.consume({ev(t0 + 500, "job", obs::event_type::async_end, 2, 999)});
    EXPECT_EQ(rs.get_totals().unmatched_ends, 1u);
}

TEST(RollingStats, AsyncSpansPairByNameContentNotAddress)
{
    // The begin names an interned copy, the end a literal: equal strings at
    // different addresses still pair.
    obs::rolling_stats rs;
    const char* interned = obs::tracer::instance().intern("pair_by_content");
    const char* literal = "pair_by_content";
    ASSERT_NE(static_cast<const void*>(interned), static_cast<const void*>(literal));
    const std::uint64_t t0 = 13 * k_s;
    rs.consume({ev(t0, interned, obs::event_type::async_begin, 1, 5),
                ev(t0 + 250, literal, obs::event_type::async_end, 2, 5)});
    EXPECT_EQ(rs.get_totals().unmatched_ends, 0u);
    EXPECT_EQ(rs.get_totals().open_spans, 0u);
    const auto w = rs.window("pair_by_content", 1, t0 + 250);
    EXPECT_EQ(w.count, 1u);
    EXPECT_EQ(w.max_ns, 250u);
}

TEST(RollingStats, WindowsForgetOldTraffic)
{
    obs::rolling_stats rs;
    const std::uint64_t t0 = 200 * k_s;
    for (int i = 0; i < 10; ++i) {
        rs.consume({ev(t0 + i * 1000, "burst", obs::event_type::begin),
                    ev(t0 + i * 1000 + 100, "burst", obs::event_type::end)});
    }
    EXPECT_EQ(rs.window("burst", 1, t0 + 10'000).count, 10u);
    // Five seconds later the 1 s window is empty while 10 s still covers it.
    EXPECT_EQ(rs.window("burst", 1, t0 + 5 * k_s).count, 0u);
    EXPECT_DOUBLE_EQ(rs.window("burst", 1, t0 + 5 * k_s).rate_per_s, 0.0);
    EXPECT_EQ(rs.window("burst", 10, t0 + 5 * k_s).count, 10u);
    // Beyond the ring (64 one-second slots), even the widest window is empty.
    EXPECT_EQ(rs.window("burst", 60, t0 + 200 * k_s).count, 0u);
}

TEST(RollingStats, SlotRingLapsOverwriteStaleSeconds)
{
    obs::rolling_stats rs;
    const std::uint64_t t0 = 300 * k_s;
    rs.consume({ev(t0, "lap", obs::event_type::begin),
                ev(t0 + 10, "lap", obs::event_type::end)});
    // Exactly one ring lap later the same slot index holds a different
    // second; the old sample must not leak into the new second's window.
    const std::uint64_t t1 = t0 + 64 * k_s;
    rs.consume({ev(t1, "lap", obs::event_type::begin),
                ev(t1 + 20, "lap", obs::event_type::end)});
    EXPECT_EQ(rs.window("lap", 1, t1 + 20).count, 1u);
    EXPECT_EQ(rs.window("lap", 1, t1 + 20).max_ns, 20u);
}

TEST(RollingStats, StageCapCountsDroppedSpans)
{
    obs::rolling_stats rs{2};
    const std::uint64_t t0 = 5 * k_s;
    const char* names[] = {"s1", "s2", "s3"};
    for (const char* n : names)
        rs.consume({ev(t0, n, obs::event_type::begin),
                    ev(t0 + 10, n, obs::event_type::end)});
    EXPECT_EQ(rs.stages().size(), 2u);
    EXPECT_EQ(rs.get_totals().dropped_stages, 1u);
    EXPECT_EQ(rs.window("s3", 1, t0 + 10).count, 0u);
}

TEST(RollingStats, WindowSecondsAreClamped)
{
    obs::rolling_stats rs;
    const std::uint64_t t0 = 20 * k_s;
    rs.consume({ev(t0, "clamp", obs::event_type::begin),
                ev(t0 + 10, "clamp", obs::event_type::end)});
    // 0 and negative behave as 1 s; oversized behaves as the max window.
    EXPECT_EQ(rs.window("clamp", 0, t0 + 10).count, 1u);
    EXPECT_DOUBLE_EQ(rs.window("clamp", -5, t0 + 10).rate_per_s, 1.0);
    EXPECT_EQ(rs.window("clamp", 10'000, t0 + 10).count, 1u);
}

TEST(RollingStats, ZeroNowUsesNewestConsumedTimestamp)
{
    obs::rolling_stats rs;
    const std::uint64_t t0 = 77 * k_s;
    rs.consume({ev(t0, "implicit", obs::event_type::begin),
                ev(t0 + 10, "implicit", obs::event_type::end)});
    EXPECT_EQ(rs.window("implicit", 1).count, 1u);  // now_ns defaulted
}

TEST(RollingStats, EndToEndWithLiveTracer)
{
    if (!obs::tracing_compiled()) GTEST_SKIP() << "built with OBS_TRACING=OFF";
    auto& tr = obs::tracer::instance();
    tr.set_enabled(true);
    obs::rolling_stats rs;
    std::uint64_t cursor = tr.now_ns();  // only this test's events
    {
        OBS_TRACE_SCOPE("test", "rolling_live");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    tr.set_enabled(false);
    const auto batch = tr.collect_since(cursor);
    cursor = obs::tracer::next_cursor(batch, cursor);
    rs.consume(batch);
    const auto w = rs.window("rolling_live", obs::rolling_stats::k_max_window_s);
    ASSERT_EQ(w.count, 1u);
    EXPECT_GE(w.max_ns, 1'000'000u);  // the 2 ms sleep is visible
}

TEST(RollingStats, ConcurrentConsumeAndQuery)
{
    obs::rolling_stats rs;
    std::thread producer{[&rs] {
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t t = 50 * k_s + static_cast<std::uint64_t>(i) * 100;
            rs.consume({ev(t, "conc", obs::event_type::begin),
                        ev(t + 50, "conc", obs::event_type::end)});
        }
    }};
    std::thread reader{[&rs] {
        for (int i = 0; i < 500; ++i) {
            const auto w = rs.window("conc", 10);
            (void)w;
            (void)rs.stages();
            (void)rs.get_totals();
        }
    }};
    producer.join();
    reader.join();
    EXPECT_EQ(rs.get_totals().spans, 2000u);
}

}  // namespace
