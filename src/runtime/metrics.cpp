#include "metrics.hpp"

#include <codec/backend.hpp>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace runtime {

namespace {

// Captured at static initialisation — close enough to process start for an
// uptime metric, and free of any clock syscall on the read path's hot side.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

}  // namespace

std::string codec_metric_name(std::uint8_t id)
{
    if (const codec::backend* b = codec::find_backend(id)) return std::string{b->name()};
    return std::to_string(static_cast<int>(id));
}

double process_uptime_s() noexcept
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         g_process_start)
        .count();
}

const char* build_type() noexcept
{
#ifdef RUNTIME_BUILD_TYPE
    return RUNTIME_BUILD_TYPE;
#else
    return "unknown";
#endif
}

const char* compiler_version() noexcept
{
#if defined(__clang_version__)
    return "clang " __clang_version__;
#elif defined(__VERSION__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

process_memory read_process_memory() noexcept
{
    process_memory m;
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return m;
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmRSS: %llu kB", &kib) == 1)
            m.resident_bytes = kib * 1024;
        else if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1)
            m.resident_peak_bytes = kib * 1024;
    }
    std::fclose(f);
    return m;
}

metrics_snapshot service_metrics::snapshot() const
{
    metrics_snapshot s;
    for (std::size_t id = 0; id < codec_.size(); ++id) {
        const codec_counters& c = codec_[id];
        metrics_snapshot::codec_entry e;
        e.completed = c.completed.value();
        e.failed = c.failed.value();
        e.unsupported = c.unsupported.value();
        if (e.completed + e.failed + e.unsupported == 0) continue;
        e.name = codec_metric_name(static_cast<std::uint8_t>(id));
        s.by_codec.push_back(std::move(e));
    }
    std::sort(s.by_codec.begin(), s.by_codec.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    s.jobs_submitted = submitted_.value();
    s.jobs_completed = completed_.value();
    s.jobs_failed = failed_.value();
    s.jobs_rejected = rejected_.value();
    s.jobs_batched = batched_.value();
    s.jobs_progressive = progressive_.value();
    s.layers_emitted = layers_.value();
    s.progressive_cancelled = progressive_cancelled_.value();
    s.t1_segment_bytes = t1_bytes_.value();
    s.progressive_active_high_water = static_cast<std::uint64_t>(progressive_active_.max());
    s.tiles_decoded = tiles_.value();
    s.pool_submissions = pool_submissions_.value();
    for (std::size_t p = 0; p < priority_count; ++p)
        s.shed_by_priority[p].rejected = prio_rejected_[p].value();
    s.entropy_ms = static_cast<double>(entropy_ns_.value()) / 1e6;
    s.iq_ms = static_cast<double>(iq_ns_.value()) / 1e6;
    s.idwt_ms = static_cast<double>(idwt_ns_.value()) / 1e6;
    s.finish_ms = static_cast<double>(finish_ns_.value()) / 1e6;
    const auto lat = latency_.snapshot();
    s.latency_count = lat.count;
    s.latency_mean_us = lat.mean();
    s.latency_max_us = lat.max;
    s.latency_p50_us = lat.quantile(0.50);
    s.latency_p95_us = lat.quantile(0.95);
    s.latency_p99_us = lat.quantile(0.99);
    for (std::size_t p = 0; p < priority_count; ++p) {
        const auto pl = prio_latency_[p].snapshot();
        s.latency_by_priority[p].count = pl.count;
        s.latency_by_priority[p].p50_us = pl.quantile(0.50);
        s.latency_by_priority[p].p99_us = pl.quantile(0.99);
    }
    return s;
}

void metrics_snapshot::for_each(obs::metric_sink& out) const
{
    using enum obs::metric_type;
    using obs::metric_value;
    const auto real = [](double x, int digits) { return metric_value::real(x, digits); };

    out.begin("process");
    out.add_gauge("uptime_seconds", "uptime_s", real(uptime_s, 3));
    out.add_gauge("pool_threads", "pool_threads", std::uint64_t(pool_threads));
    out.add_gauge("tracing_armed", "tracing_armed", metric_value::flag(tracing_armed));
    out.add_gauge("process_resident_bytes", "resident_bytes", resident_bytes);
    out.add_gauge("process_resident_peak_bytes", "resident_peak_bytes",
                  resident_peak_bytes);
    out.add({.key = "build_type"}, metric_value::text(build));
    out.add({.key = "compiler"}, metric_value::text(compiler));
    const obs::metric_label build_labels[] = {{"type", build}, {"compiler", compiler}};
    out.add({.family = "build_info", .type = gauge, .labels = build_labels}, 1);
    out.end();

    out.add_counter("jobs_submitted_total", "jobs_submitted", jobs_submitted);
    out.add_counter("jobs_completed_total", "jobs_completed", jobs_completed);
    out.add_counter("jobs_failed_total", "jobs_failed", jobs_failed);
    out.add_counter("jobs_rejected_total", "jobs_rejected", jobs_rejected);
    out.add_counter("jobs_promoted_total", "jobs_promoted", jobs_promoted);
    out.add_counter("jobs_batched_total", "jobs_batched", jobs_batched);
    for (std::size_t p = 0; p < priority_count; ++p) {
        const char* pn = priority_name(static_cast<priority>(p));
        const obs::metric_label rejected[] = {{"priority", pn}, {"kind", "rejected"}};
        out.begin(std::string{"shed_"} + pn);
        out.add({.family = "jobs_shed_total", .labels = rejected, .key = "rejected"},
                shed_by_priority[p].rejected);
        out.end();
    }
    out.add_gauge("queue_depth_high_water", "queue_depth_high_water",
                  queue_depth_high_water);

    out.add_counter("jobs_progressive_total", "jobs_progressive", jobs_progressive);
    out.add_counter("layers_emitted_total", "layers_emitted", layers_emitted);
    out.add_counter("progressive_cancelled_total", "progressive_cancelled",
                    progressive_cancelled);
    out.add_counter("t1_segment_bytes_total", "t1_segment_bytes", t1_segment_bytes);
    out.add_gauge("progressive_active_high_water", "progressive_active_high_water",
                  progressive_active_high_water);

    out.begin("cache");
    out.add_counter("cache_hits_total", "hits", cache_hits);
    out.add_counter("cache_misses_total", "misses", cache_misses);
    out.add_counter("cache_collapses_total", "collapses", cache_collapses);
    out.add_counter("cache_mismatches_total", "mismatches", cache_mismatches);
    out.add_counter("cache_evictions_total", "evictions", cache_evictions);
    out.add_gauge("cache_bytes", "bytes", cache_bytes);
    out.add_gauge("cache_pinned_bytes", "pinned_bytes", cache_pinned_bytes);
    out.add_gauge("cache_entries", "entries", cache_entries);
    out.end();

    out.add_counter("tiles_decoded_total", "tiles_decoded", tiles_decoded);
    out.add_counter("tasks_stolen_total", "tasks_stolen", tasks_stolen);
    out.add_counter("pool_submissions_total", "pool_submissions", pool_submissions);
    const struct {
        const char* stage;
        const char* key;
        double ms;
    } stages[] = {{"entropy", "entropy_ms", entropy_ms},
                  {"iq", "iq_ms", iq_ms},
                  {"idwt", "idwt_ms", idwt_ms},
                  {"finish", "finish_ms", finish_ms}};
    for (const auto& st : stages) {
        const obs::metric_label stage[] = {{"stage", st.stage}};
        out.add({.family = "stage_wall_seconds_total", .labels = stage, .key = st.key,
                 .prom_shift = -3},
                real(st.ms, 3));
    }

    const obs::metric_label q50[] = {{"quantile", "0.5"}};
    const obs::metric_label q95[] = {{"quantile", "0.95"}};
    const obs::metric_label q99[] = {{"quantile", "0.99"}};
    out.add({.family = "latency_us", .type = summary, .suffix = "_count",
             .key = "latency_count"},
            latency_count);
    out.add({.key = "latency_mean_us"}, real(latency_mean_us, 1));
    out.add({.family = "latency_us", .type = summary, .labels = q50,
             .key = "latency_p50_us"},
            real(latency_p50_us, 1));
    out.add({.family = "latency_us", .type = summary, .labels = q95,
             .key = "latency_p95_us"},
            real(latency_p95_us, 1));
    out.add({.family = "latency_us", .type = summary, .labels = q99,
             .key = "latency_p99_us"},
            real(latency_p99_us, 1));
    out.add({.family = "latency_us", .type = summary, .suffix = "_sum"},
            real(latency_mean_us * static_cast<double>(latency_count), 1));
    out.add_gauge("latency_us_max", "latency_max_us", latency_max_us);
    for (std::size_t p = 0; p < priority_count; ++p) {
        const char* pn = priority_name(static_cast<priority>(p));
        const obs::metric_label at[] = {{"priority", pn}};
        const obs::metric_label p50[] = {{"priority", pn}, {"quantile", "0.5"}};
        const obs::metric_label p99[] = {{"priority", pn}, {"quantile", "0.99"}};
        const priority_latency& l = latency_by_priority[p];
        out.begin(std::string{"latency_"} + pn);
        out.add({.family = "priority_latency_us", .type = summary, .labels = at,
                 .suffix = "_count", .key = "count"},
                l.count);
        out.add({.family = "priority_latency_us", .type = summary, .labels = p50,
                 .key = "p50_us"},
                real(l.p50_us, 1));
        out.add({.family = "priority_latency_us", .type = summary, .labels = p99,
                 .key = "p99_us"},
                real(l.p99_us, 1));
        out.end();
    }

    // Per-codec split, labelled by backend name; the cache hit/miss split
    // rides along so a dashboard can tell a cold codec from an unused one.
    out.begin("by_codec");
    for (const codec_entry& c : by_codec) {
        const obs::metric_label codec[] = {{"codec", c.name}};
        const auto add = [&](std::string_view family, std::string_view key,
                             std::uint64_t v) {
            out.add({.family = family, .labels = codec, .key = key}, v);
        };
        out.begin(c.name);
        add("codec_jobs_completed_total", "completed", c.completed);
        add("codec_jobs_failed_total", "failed", c.failed);
        add("codec_jobs_unsupported_total", "unsupported", c.unsupported);
        add("codec_cache_hits_total", "cache_hits", c.cache_hits);
        add("codec_cache_misses_total", "cache_misses", c.cache_misses);
        out.end();
    }
    out.end();
}

std::string metrics_snapshot::dump() const
{
    obs::dump_text out;
    for_each(out);
    return out.str();
}

std::string metrics_snapshot::to_json() const
{
    obs::json_text out;
    for_each(out);
    return out.str();
}

}  // namespace runtime
