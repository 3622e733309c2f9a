// obs metrics: counters, gauges, the metric sinks (Prometheus text, JSON,
// dump), and the log2 histogram — including the quantile edge cases (empty,
// q=0/1, single sample, in-bucket interpolation) that the service latency
// percentiles depend on.
#include <obs/metrics.hpp>

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace {

TEST(Counter, AddAndRead)
{
    obs::counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksValueAndHighWater)
{
    obs::gauge g;
    g.set(5);
    g.set(2);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.max(), 5);
    g.add(10);
    EXPECT_EQ(g.value(), 12);
    EXPECT_EQ(g.max(), 12);
    g.add(-12);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.max(), 12);
}

// ---------------------------------------------------------------------------
// Metric sinks: one enumeration rendered three ways.

/// A small enumeration: a group, a labelled family split across the group
/// boundary, a summary with a suffix, JSON-only and Prometheus-only values.
void enumerate(obs::metric_sink& out)
{
    using enum obs::metric_type;
    const obs::metric_label a[] = {{"shard", "a"}};
    const obs::metric_label b[] = {{"shard", "b"}};
    out.add({.family = "frames_total", .labels = a, .key = "frames_a"}, 3);
    out.begin("cache");
    out.add({.family = "cache_bytes", .type = gauge, .key = "bytes"}, 9);
    out.add({.family = "frames_total", .labels = b, .key = "frames_b"}, 4);
    out.add({.key = "isa"}, obs::metric_value::text("avx2"));
    out.end();
    out.begin("empty");
    out.end();
    out.add({.family = "lat_us", .type = summary, .suffix = "_count", .key = "n"}, 2);
    out.add({.family = "lat_us", .type = summary, .suffix = "_sum"},
            obs::metric_value::real(12.5, 1));
    out.add({.family = "wall_seconds_total", .key = "wall_ms", .prom_shift = -3},
            obs::metric_value::real(1.25, 2));
    out.add_gauge("armed", "armed", obs::metric_value::flag(true));
}

TEST(MetricSink, PrometheusGroupsEachFamilyUnderOneTypeLine)
{
    obs::prometheus_text p{"j2k"};
    enumerate(p);
    EXPECT_EQ(p.str(),
              "# TYPE j2k_frames_total counter\n"
              "j2k_frames_total{shard=\"a\"} 3\n"
              "j2k_frames_total{shard=\"b\"} 4\n"
              "# TYPE j2k_cache_bytes gauge\n"
              "j2k_cache_bytes 9\n"
              "# TYPE j2k_lat_us summary\n"
              "j2k_lat_us_count 2\n"
              "j2k_lat_us_sum 12.5\n"
              "# TYPE j2k_wall_seconds_total counter\n"
              "j2k_wall_seconds_total 0.00125\n"
              "# TYPE j2k_armed gauge\n"
              "j2k_armed 1\n");
}

TEST(MetricSink, JsonNestsGroupsAndKeepsEmptyOnes)
{
    obs::json_text j;
    enumerate(j);
    EXPECT_EQ(j.str(),
              "{\"frames_a\":3,\"cache\":{\"bytes\":9,\"frames_b\":4,\"isa\":\"avx2\"},"
              "\"empty\":{},\"n\":2,\"wall_ms\":1.25,\"armed\":true}");
}

TEST(MetricSink, DumpPutsEachGroupOnItsOwnLine)
{
    obs::dump_text d;
    enumerate(d);
    EXPECT_EQ(d.str(),
              "frames_a=3\n"
              "cache: bytes=9 frames_b=4 isa=\"avx2\"\n"
              "n=2 wall_ms=1.25 armed=true\n");
}

TEST(MetricSink, HostileNamesAndLabelsCannotBreakEitherFormat)
{
    const obs::metric_label l[] = {{"bad key!", "quo\"te\\back\nline"}};
    const auto feed = [&](obs::metric_sink& out) {
        out.begin("grp\"x");
        out.add({.family = "weird name!", .labels = l, .key = "quote\"inject\":9999,\"x"},
                1);
        out.end();
    };
    obs::prometheus_text p{"j2k"};
    feed(p);
    EXPECT_EQ(p.str(),
              "# TYPE j2k_weird_name_ counter\n"
              "j2k_weird_name_{bad_key_=\"quo\\\"te\\\\back\\nline\"} 1\n");
    obs::json_text j;
    feed(j);
    // The quote is escaped, so the injected ":9999" stays inside the key.
    EXPECT_EQ(j.str(), "{\"grp\\\"x\":{\"quote\\\"inject\\\":9999,\\\"x\":1}}");
}

// ---------------------------------------------------------------------------
// Name hygiene at the exposition boundary (metric names are free-form).

TEST(NameHygiene, PrometheusNameSanitisesOnce)
{
    EXPECT_EQ(obs::prometheus_name("jobs_submitted"), "jobs_submitted");
    EXPECT_EQ(obs::prometheus_name("ns:sub_system"), "ns:sub_system");
    EXPECT_EQ(obs::prometheus_name("latency.p99-us"), "latency_p99_us");
    EXPECT_EQ(obs::prometheus_name("queue depth"), "queue_depth");
    EXPECT_EQ(obs::prometheus_name("naïve"), "na__ve");  // multibyte → per byte
    // A leading digit may not start a Prometheus identifier.
    EXPECT_EQ(obs::prometheus_name("2xx_responses"), "_2xx_responses");
    EXPECT_EQ(obs::prometheus_name(""), "_");
    EXPECT_EQ(obs::prometheus_name("\"evil\nname\\"), "_evil_name_");
}

TEST(NameHygiene, JsonQuoteEscapesHostileStrings)
{
    EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
    EXPECT_EQ(obs::json_quote("with \"quotes\""), "\"with \\\"quotes\\\"\"");
    EXPECT_EQ(obs::json_quote("back\\slash"), "\"back\\\\slash\"");
    EXPECT_EQ(obs::json_quote(std::string_view{"tab\tnl\n", 7}), "\"tab\\u0009nl\\u000a\"");
}

TEST(Histogram, EmptyQuantileIsZero)
{
    const obs::log2_histogram h;
    const auto d = h.snapshot();
    EXPECT_EQ(d.count, 0u);
    EXPECT_EQ(d.quantile(0.0), 0.0);
    EXPECT_EQ(d.quantile(0.5), 0.0);
    EXPECT_EQ(d.quantile(1.0), 0.0);
    EXPECT_EQ(d.mean(), 0.0);
}

TEST(Histogram, QuantileIsClampedToValidRange)
{
    obs::log2_histogram h;
    h.observe(100);
    const auto d = h.snapshot();
    EXPECT_EQ(d.quantile(-3.0), d.quantile(0.0));
    EXPECT_EQ(d.quantile(42.0), d.quantile(1.0));
}

TEST(Histogram, SingleSampleNeverExceedsObservedMax)
{
    obs::log2_histogram h;
    h.observe(5);  // bucket [4, 8)
    const auto d = h.snapshot();
    EXPECT_EQ(d.count, 1u);
    EXPECT_EQ(d.max, 5u);
    // q=1 would interpolate to the bucket's open upper bound (8) without the
    // clamp; the estimate must never exceed the largest real sample.
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 5.0);
    EXPECT_LE(d.quantile(0.5), 5.0);
    EXPECT_GE(d.quantile(0.0), 4.0);  // bucket lower bound
}

TEST(Histogram, ZeroValuedSamples)
{
    obs::log2_histogram h;
    for (int i = 0; i < 10; ++i) h.observe(0);
    const auto d = h.snapshot();
    EXPECT_EQ(d.max, 0u);
    EXPECT_EQ(d.quantile(1.0), 0.0);
    EXPECT_EQ(d.quantile(0.5), 0.0);
}

TEST(Histogram, InterpolatesLinearlyWithinABucket)
{
    obs::log2_histogram h;
    for (int i = 0; i < 10; ++i) h.observe(2);     // bucket [2, 4)
    for (int i = 0; i < 10; ++i) h.observe(1000);  // bucket [512, 1024)
    const auto d = h.snapshot();
    // p25 → 5th of 20 samples → halfway through the first bucket.
    EXPECT_DOUBLE_EQ(d.quantile(0.25), 3.0);
    // p75 → 15th → halfway through the second bucket.
    EXPECT_DOUBLE_EQ(d.quantile(0.75), 768.0);
    // q=0 lands at the first occupied bucket's lower bound.
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 2.0);
    // q=1 clamps to the real maximum, not the bucket bound.
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 1000.0);
}

TEST(Histogram, MeanAndMaxAreExact)
{
    obs::log2_histogram h;
    h.observe(10);
    h.observe(20);
    h.observe(60);
    const auto d = h.snapshot();
    EXPECT_DOUBLE_EQ(d.mean(), 30.0);
    EXPECT_EQ(d.max, 60u);
    EXPECT_EQ(d.sum, 90u);
}

TEST(Histogram, ConcurrentObserversStayConsistent)
{
    obs::log2_histogram h;
    constexpr int k_threads = 4;
    constexpr int k_per_thread = 10000;
    std::vector<std::thread> ts;
    for (int t = 0; t < k_threads; ++t)
        ts.emplace_back([&h] {
            for (int i = 0; i < k_per_thread; ++i)
                h.observe(static_cast<std::uint64_t>(i % 1000));
        });
    for (auto& t : ts) t.join();
    const auto d = h.snapshot();
    EXPECT_EQ(d.count, static_cast<std::uint64_t>(k_threads) * k_per_thread);
    EXPECT_EQ(d.max, 999u);
    std::uint64_t total = 0;
    for (const auto b : d.buckets) total += b;
    EXPECT_EQ(total, d.count);
}

}  // namespace
