#include "metrics.hpp"

#include <codec/backend.hpp>

#include <chrono>
#include <cstdio>

namespace runtime {

namespace {

/// Exposition name for a codec wire id: the registry name when the id is
/// registered, the decimal id otherwise (unsupported-codec traffic has no
/// backend to ask).
std::string codec_metric_name(std::uint8_t id)
{
    if (const codec::backend* b = codec::find_backend(id)) return std::string{b->name()};
    return std::to_string(static_cast<int>(id));
}

// Captured at static initialisation — close enough to process start for an
// uptime metric, and free of any clock syscall on the read path's hot side.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

}  // namespace

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

service_metrics::service_metrics()
    : submitted_{reg_.get_counter("jobs_submitted")},
      completed_{reg_.get_counter("jobs_completed")},
      failed_{reg_.get_counter("jobs_failed")},
      rejected_{reg_.get_counter("jobs_rejected")},
      dropped_{reg_.get_counter("jobs_dropped")},
      promoted_{reg_.get_counter("jobs_promoted")},
      batched_{reg_.get_counter("jobs_batched")},
      progressive_{reg_.get_counter("jobs_progressive")},
      layers_{reg_.get_counter("layers_emitted")},
      progressive_cancelled_{reg_.get_counter("progressive_cancelled")},
      t1_bytes_{reg_.get_counter("t1_segment_bytes")},
      progressive_active_{reg_.get_gauge("progressive_active")},
      pool_submissions_{reg_.get_counter("pool_submissions")},
      tiles_{reg_.get_counter("tiles_decoded")},
      entropy_ns_{reg_.get_counter("stage_entropy_ns")},
      iq_ns_{reg_.get_counter("stage_iq_ns")},
      idwt_ns_{reg_.get_counter("stage_idwt_ns")},
      finish_ns_{reg_.get_counter("stage_finish_ns")},
      queue_depth_{reg_.get_gauge("queue_depth")},
      latency_{reg_.get_histogram("latency_us")}
{
    for (std::size_t p = 0; p < priority_count; ++p) {
        const auto* name = priority_name(static_cast<priority>(p));
        prio_depth_[p] = &reg_.get_gauge(std::string{"queue_depth_"} + name);
        prio_latency_[p] = &reg_.get_histogram(std::string{"latency_"} + name + "_us");
        prio_rejected_[p] = &reg_.get_counter(std::string{"jobs_rejected_"} + name);
        prio_dropped_[p] = &reg_.get_counter(std::string{"jobs_dropped_"} + name);
    }
}

service_metrics::codec_counters& service_metrics::codec_slot(std::uint8_t codec) noexcept
{
    // Caller holds codec_m_.  Counters register against reg_ with a
    // Prometheus label block in the name, which the generic expositions pass
    // through verbatim (see ops_server's extra-counter handling).
    const std::string name = codec_metric_name(codec);
    auto it = codec_.find(name);
    if (it == codec_.end()) {
        codec_counters c;
        c.completed = &reg_.get_counter("codec_jobs_completed{codec=\"" + name + "\"}");
        c.failed = &reg_.get_counter("codec_jobs_failed{codec=\"" + name + "\"}");
        c.unsupported =
            &reg_.get_counter("codec_jobs_unsupported{codec=\"" + name + "\"}");
        it = codec_.emplace(name, c).first;
    }
    return it->second;
}

void service_metrics::on_codec_completed(std::uint8_t codec) noexcept
{
    std::lock_guard lk{codec_m_};
    codec_slot(codec).completed->add();
}

void service_metrics::on_codec_failed(std::uint8_t codec) noexcept
{
    std::lock_guard lk{codec_m_};
    codec_slot(codec).failed->add();
}

void service_metrics::on_codec_unsupported(std::uint8_t codec) noexcept
{
    std::lock_guard lk{codec_m_};
    codec_slot(codec).unsupported->add();
}

metrics_snapshot service_metrics::snapshot() const
{
    metrics_snapshot s;
    {
        std::lock_guard lk{codec_m_};
        s.by_codec.reserve(codec_.size());
        for (const auto& [name, c] : codec_) {
            metrics_snapshot::codec_entry e;
            e.name = name;
            e.completed = c.completed->value();
            e.failed = c.failed->value();
            e.unsupported = c.unsupported->value();
            s.by_codec.push_back(std::move(e));
        }
    }
    s.jobs_submitted = submitted_.value();
    s.jobs_completed = completed_.value();
    s.jobs_failed = failed_.value();
    s.jobs_rejected = rejected_.value();
    s.jobs_dropped = dropped_.value();
    s.jobs_promoted = promoted_.value();
    s.jobs_batched = batched_.value();
    s.queue_depth_high_water = static_cast<std::uint64_t>(queue_depth_.max());
    s.jobs_progressive = progressive_.value();
    s.layers_emitted = layers_.value();
    s.progressive_cancelled = progressive_cancelled_.value();
    s.t1_segment_bytes = t1_bytes_.value();
    s.progressive_active_high_water = static_cast<std::uint64_t>(progressive_active_.max());
    s.tiles_decoded = tiles_.value();
    s.pool_submissions = pool_submissions_.value();
    for (std::size_t p = 0; p < priority_count; ++p) {
        s.shed_by_priority[p].rejected = prio_rejected_[p]->value();
        s.shed_by_priority[p].dropped = prio_dropped_[p]->value();
    }
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
        const auto pl = prio_latency_[p]->snapshot();
        s.latency_by_priority[p].count = pl.count;
        s.latency_by_priority[p].p50_us = pl.quantile(0.50);
        s.latency_by_priority[p].p99_us = pl.quantile(0.99);
    }
    return s;
}

std::string metrics_snapshot::dump() const
{
    char buf[4096];
    std::snprintf(
        buf, sizeof buf,
        "process: uptime=%.1fs pool_threads=%d tracing_armed=%d build=%s "
        "compiler=\"%s\"\n"
        "jobs: submitted=%llu completed=%llu failed=%llu rejected=%llu dropped=%llu "
        "promoted=%llu batched=%llu\n"
        "shed by priority: interactive rejected=%llu dropped=%llu | "
        "batch rejected=%llu dropped=%llu\n"
        "queue: high_water=%llu\n"
        "progressive: jobs=%llu layers=%llu cancelled=%llu t1_bytes=%llu "
        "active_high_water=%llu\n"
        "cache: hits=%llu misses=%llu collapses=%llu evictions=%llu "
        "session_resumes=%llu bytes=%llu pinned=%llu entries=%llu sessions=%llu\n"
        "kernels: isa=%s\n"
        "arena: capacity=%llu leases=%llu dry=%llu fallback_allocs=%llu "
        "high_water=%llu\n"
        "work: tiles_decoded=%llu tasks_stolen=%llu pool_submissions=%llu\n"
        "stage wall time [ms]: entropy=%.2f iq=%.2f idwt=%.2f finish=%.2f\n"
        "latency [us]: n=%llu mean=%.0f p50=%.0f p95=%.0f p99=%.0f max=%llu\n"
        "latency interactive [us]: n=%llu p50=%.0f p99=%.0f\n"
        "latency batch [us]: n=%llu p50=%.0f p99=%.0f\n",
        uptime_s, pool_threads, tracing_armed ? 1 : 0, build, compiler,
        static_cast<unsigned long long>(jobs_submitted),
        static_cast<unsigned long long>(jobs_completed),
        static_cast<unsigned long long>(jobs_failed),
        static_cast<unsigned long long>(jobs_rejected),
        static_cast<unsigned long long>(jobs_dropped),
        static_cast<unsigned long long>(jobs_promoted),
        static_cast<unsigned long long>(jobs_batched),
        static_cast<unsigned long long>(shed_by_priority[0].rejected),
        static_cast<unsigned long long>(shed_by_priority[0].dropped),
        static_cast<unsigned long long>(shed_by_priority[1].rejected),
        static_cast<unsigned long long>(shed_by_priority[1].dropped),
        static_cast<unsigned long long>(queue_depth_high_water),
        static_cast<unsigned long long>(jobs_progressive),
        static_cast<unsigned long long>(layers_emitted),
        static_cast<unsigned long long>(progressive_cancelled),
        static_cast<unsigned long long>(t1_segment_bytes),
        static_cast<unsigned long long>(progressive_active_high_water),
        static_cast<unsigned long long>(cache_hits),
        static_cast<unsigned long long>(cache_misses),
        static_cast<unsigned long long>(cache_collapses),
        static_cast<unsigned long long>(cache_evictions),
        static_cast<unsigned long long>(cache_session_resumes),
        static_cast<unsigned long long>(cache_bytes),
        static_cast<unsigned long long>(cache_pinned_bytes),
        static_cast<unsigned long long>(cache_entries),
        static_cast<unsigned long long>(cache_session_entries), kernel_isa,
        static_cast<unsigned long long>(arena_capacity_bytes),
        static_cast<unsigned long long>(arena_leases),
        static_cast<unsigned long long>(arena_dry_acquires),
        static_cast<unsigned long long>(arena_fallback_allocs),
        static_cast<unsigned long long>(arena_high_water_bytes),
        static_cast<unsigned long long>(tiles_decoded),
        static_cast<unsigned long long>(tasks_stolen),
        static_cast<unsigned long long>(pool_submissions), entropy_ms, iq_ms, idwt_ms,
        finish_ms, static_cast<unsigned long long>(latency_count), latency_mean_us,
        latency_p50_us, latency_p95_us, latency_p99_us,
        static_cast<unsigned long long>(latency_max_us),
        static_cast<unsigned long long>(latency_by_priority[0].count),
        latency_by_priority[0].p50_us, latency_by_priority[0].p99_us,
        static_cast<unsigned long long>(latency_by_priority[1].count),
        latency_by_priority[1].p50_us, latency_by_priority[1].p99_us);
    return buf;
}

std::string metrics_snapshot::to_json() const
{
    // Build/compiler strings come from macros and can in principle hold any
    // characters, so they go through the shared JSON escaper.
    char proc[512];
    std::snprintf(proc, sizeof proc,
                  "{\"process\":{\"uptime_s\":%.3f,\"pool_threads\":%d,"
                  "\"tracing_armed\":%s,\"build_type\":%s,\"compiler\":%s},",
                  uptime_s, pool_threads, tracing_armed ? "true" : "false",
                  obs::json_quote(build).c_str(), obs::json_quote(compiler).c_str());
    char buf[4096];
    std::snprintf(
        buf, sizeof buf,
        "\"jobs_submitted\":%llu,\"jobs_completed\":%llu,\"jobs_failed\":%llu,"
        "\"jobs_rejected\":%llu,\"jobs_dropped\":%llu,\"jobs_promoted\":%llu,"
        "\"jobs_batched\":%llu,"
        "\"shed_interactive\":{\"rejected\":%llu,\"dropped\":%llu},"
        "\"shed_batch\":{\"rejected\":%llu,\"dropped\":%llu},"
        "\"queue_depth_high_water\":%llu,"
        "\"jobs_progressive\":%llu,\"layers_emitted\":%llu,"
        "\"progressive_cancelled\":%llu,\"t1_segment_bytes\":%llu,"
        "\"progressive_active_high_water\":%llu,"
        "\"cache\":{\"hits\":%llu,\"misses\":%llu,\"collapses\":%llu,"
        "\"evictions\":%llu,\"session_resumes\":%llu,\"bytes\":%llu,"
        "\"pinned_bytes\":%llu,\"entries\":%llu,\"session_entries\":%llu},"
        "\"kernel_isa\":%s,"
        "\"arena\":{\"capacity_bytes\":%llu,\"leases\":%llu,\"dry_acquires\":%llu,"
        "\"fallback_allocs\":%llu,\"high_water_bytes\":%llu},"
        "\"tiles_decoded\":%llu,\"tasks_stolen\":%llu,\"pool_submissions\":%llu,"
        "\"entropy_ms\":%.3f,\"iq_ms\":%.3f,\"idwt_ms\":%.3f,"
        "\"finish_ms\":%.3f,\"latency_count\":%llu,\"latency_mean_us\":%.1f,"
        "\"latency_p50_us\":%.1f,\"latency_p95_us\":%.1f,\"latency_p99_us\":%.1f,"
        "\"latency_max_us\":%llu,"
        "\"latency_interactive\":{\"count\":%llu,\"p50_us\":%.1f,\"p99_us\":%.1f},"
        "\"latency_batch\":{\"count\":%llu,\"p50_us\":%.1f,\"p99_us\":%.1f}",
        static_cast<unsigned long long>(jobs_submitted),
        static_cast<unsigned long long>(jobs_completed),
        static_cast<unsigned long long>(jobs_failed),
        static_cast<unsigned long long>(jobs_rejected),
        static_cast<unsigned long long>(jobs_dropped),
        static_cast<unsigned long long>(jobs_promoted),
        static_cast<unsigned long long>(jobs_batched),
        static_cast<unsigned long long>(shed_by_priority[0].rejected),
        static_cast<unsigned long long>(shed_by_priority[0].dropped),
        static_cast<unsigned long long>(shed_by_priority[1].rejected),
        static_cast<unsigned long long>(shed_by_priority[1].dropped),
        static_cast<unsigned long long>(queue_depth_high_water),
        static_cast<unsigned long long>(jobs_progressive),
        static_cast<unsigned long long>(layers_emitted),
        static_cast<unsigned long long>(progressive_cancelled),
        static_cast<unsigned long long>(t1_segment_bytes),
        static_cast<unsigned long long>(progressive_active_high_water),
        static_cast<unsigned long long>(cache_hits),
        static_cast<unsigned long long>(cache_misses),
        static_cast<unsigned long long>(cache_collapses),
        static_cast<unsigned long long>(cache_evictions),
        static_cast<unsigned long long>(cache_session_resumes),
        static_cast<unsigned long long>(cache_bytes),
        static_cast<unsigned long long>(cache_pinned_bytes),
        static_cast<unsigned long long>(cache_entries),
        static_cast<unsigned long long>(cache_session_entries),
        obs::json_quote(kernel_isa).c_str(),
        static_cast<unsigned long long>(arena_capacity_bytes),
        static_cast<unsigned long long>(arena_leases),
        static_cast<unsigned long long>(arena_dry_acquires),
        static_cast<unsigned long long>(arena_fallback_allocs),
        static_cast<unsigned long long>(arena_high_water_bytes),
        static_cast<unsigned long long>(tiles_decoded),
        static_cast<unsigned long long>(tasks_stolen),
        static_cast<unsigned long long>(pool_submissions), entropy_ms, iq_ms, idwt_ms,
        finish_ms, static_cast<unsigned long long>(latency_count), latency_mean_us,
        latency_p50_us, latency_p95_us, latency_p99_us,
        static_cast<unsigned long long>(latency_max_us),
        static_cast<unsigned long long>(latency_by_priority[0].count),
        latency_by_priority[0].p50_us, latency_by_priority[0].p99_us,
        static_cast<unsigned long long>(latency_by_priority[1].count),
        latency_by_priority[1].p50_us, latency_by_priority[1].p99_us);

    std::string codecs = ",\"by_codec\":{";
    bool first = true;
    for (const auto& c : by_codec) {
        if (!first) codecs += ',';
        first = false;
        char cb[256];
        std::snprintf(cb, sizeof cb,
                      "%s:{\"completed\":%llu,\"failed\":%llu,"
                      "\"unsupported\":%llu,\"cache_hits\":%llu,"
                      "\"cache_misses\":%llu}",
                      obs::json_quote(c.name).c_str(),
                      static_cast<unsigned long long>(c.completed),
                      static_cast<unsigned long long>(c.failed),
                      static_cast<unsigned long long>(c.unsupported),
                      static_cast<unsigned long long>(c.cache_hits),
                      static_cast<unsigned long long>(c.cache_misses));
        codecs += cb;
    }
    codecs += "}}";
    return std::string{proc} + buf + codecs;
}

}  // namespace runtime
