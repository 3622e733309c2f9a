// runtime/metrics.hpp — decode-service metrics (see docs/OBSERVABILITY.md).
//
// service_metrics holds the live obs:: counters, gauges and histograms as
// plain members, so the hot path is a handful of relaxed RMWs.  Its snapshot,
// metrics_snapshot, is the one typed record every surface reads, and
// metrics_snapshot::for_each is the one place that names each metric: the
// Prometheus families, the JSON keys and the dump lines are all rendered
// from it.
#pragma once

#include "queue.hpp"

#include <codec/backend.hpp>
#include <obs/obs.hpp>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace runtime {

/// Seconds since the process (strictly: this translation unit's static
/// initialisation) started — the uptime every exposition surface reports.
[[nodiscard]] double process_uptime_s() noexcept;

/// Exposition name for a codec wire id: the registered backend's name, the
/// decimal id otherwise (unsupported-codec traffic has no backend to ask).
[[nodiscard]] std::string codec_metric_name(std::uint8_t id);

/// Compile-time build description ("RelWithDebInfo" etc.; "unknown" when the
/// build system did not say) and the compiler version string.
[[nodiscard]] const char* build_type() noexcept;
[[nodiscard]] const char* compiler_version() noexcept;

/// This process's resident memory, as /proc/self/status reports it.
struct process_memory {
    std::uint64_t resident_bytes = 0;       ///< VmRSS
    std::uint64_t resident_peak_bytes = 0;  ///< VmHWM: the peak VmRSS so far
};
/// Reads /proc/self/status; zeros where it (or a field) is missing.
[[nodiscard]] process_memory read_process_memory() noexcept;

/// Point-in-time copy of every service metric.
struct metrics_snapshot {
    // Process metadata (filled by decode_service::metrics(); zero/empty in a
    // bare service_metrics::snapshot()).
    double uptime_s = 0.0;
    int pool_threads = 0;
    bool tracing_armed = false;      ///< obs tracer armed at snapshot time
    const char* build = "";          ///< build type (static string)
    const char* compiler = "";       ///< compiler version (static string)
    std::uint64_t resident_bytes = 0;       ///< see process_memory
    std::uint64_t resident_peak_bytes = 0;

    // Admission.
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_failed = 0;    ///< decode threw (malformed stream, ...)
    std::uint64_t jobs_rejected = 0;  ///< refused at admission (reject policy)
    std::uint64_t jobs_dropped = 0;   ///< evicted while queued (drop_oldest)
    std::uint64_t jobs_batched = 0;   ///< jobs admitted through submit_batch
    // Kept by the queue under its lock (filled by decode_service::metrics()).
    std::uint64_t jobs_promoted = 0;  ///< batch jobs popped past waiting interactive
    std::uint64_t queue_depth_high_water = 0;

    /// Shed accounting split by admission class (indexed by runtime::priority).
    /// `dropped` is charged to the priority of the *evicted* job, which with
    /// per-priority capacities is not always the priority being pushed.
    struct priority_shed {
        std::uint64_t rejected = 0;
        std::uint64_t dropped = 0;
    };
    priority_shed shed_by_priority[priority_count];

    // Progressive (layer-streaming) jobs.
    std::uint64_t jobs_progressive = 0;        ///< jobs via submit_progressive
    std::uint64_t layers_emitted = 0;          ///< refinement images delivered
    std::uint64_t progressive_cancelled = 0;   ///< sessions ended early by callback
    /// Tier-1 segment bytes arithmetic-decoded by progressive sessions — the
    /// O(L) evidence: approaches the streams' total payload, never L× it.
    std::uint64_t t1_segment_bytes = 0;
    std::uint64_t progressive_active_high_water = 0;

    // Decoded-result cache (all zero when the service runs without one; the
    // live counters are owned by the cache itself and merged at snapshot
    // time by decode_service::metrics()).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;     ///< flights led == decodes run for the cache
    std::uint64_t cache_collapses = 0;  ///< requests folded into a leader's flight
    /// Requests whose key matched a resident entry or an in-flight decode
    /// but whose bytes did not; each was decoded uncached.
    std::uint64_t cache_mismatches = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_session_resumes = 0;
    std::uint64_t cache_bytes = 0;
    std::uint64_t cache_pinned_bytes = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_session_entries = 0;

    // Work.
    std::uint64_t tiles_decoded = 0;
    std::uint64_t tasks_stolen = 0;  ///< pool subtasks run by a non-owning worker
    /// Pump tasks handed to the pool; with small-job batching this is below
    /// jobs_submitted (one pump drains a whole batch).
    std::uint64_t pool_submissions = 0;

    // Cumulative per-stage wall time across all workers (Figure 1's stage
    // split, measured on the host).
    double entropy_ms = 0.0;
    double iq_ms = 0.0;
    double idwt_ms = 0.0;
    double finish_ms = 0.0;

    // End-to-end job latency (submit → future ready), queue wait included.
    std::uint64_t latency_count = 0;
    double latency_mean_us = 0.0;
    std::uint64_t latency_max_us = 0;
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;

    // Per-priority split of the same latency (indexed by runtime::priority).
    struct priority_latency {
        std::uint64_t count = 0;
        double p50_us = 0.0;
        double p99_us = 0.0;
    };
    priority_latency latency_by_priority[priority_count];

    /// Per-codec job and cache split (sorted by codec name; only codecs that
    /// have seen traffic appear).  `name` is the registry name for known wire
    /// ids, the decimal id otherwise (`unsupported` traffic has no backend).
    struct codec_entry {
        std::string name;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t unsupported = 0;  ///< jobs refused: id not registered
        std::uint64_t cache_hits = 0;   ///< merged by decode_service::metrics()
        std::uint64_t cache_misses = 0;
    };
    std::vector<codec_entry> by_codec;

    /// Feeds every metric to `out`, each with its Prometheus family, labels
    /// and type and its JSON group and key — the only place they are named.
    void for_each(obs::metric_sink& out) const;

    /// Multi-line human-readable dump (one line per JSON group).
    [[nodiscard]] std::string dump() const;
    /// Single JSON object (stable keys, machine-readable).
    [[nodiscard]] std::string to_json() const;
};

/// Live metric registers, shared by every worker of one decode_service.  The
/// queue's high-water mark and promotion count live in the queue itself.
class service_metrics {
public:
    void on_submitted() noexcept { submitted_.add(); }
    void on_completed() noexcept { completed_.add(); }
    void on_failed() noexcept { failed_.add(); }
    void on_rejected(priority p) noexcept
    {
        rejected_.add();
        prio_rejected_[static_cast<std::size_t>(p)].add();
    }
    void on_dropped(priority p) noexcept
    {
        dropped_.add();
        prio_dropped_[static_cast<std::size_t>(p)].add();
    }
    void on_batched() noexcept { batched_.add(); }
    void on_progressive_started() noexcept
    {
        progressive_.add();
        progressive_active_.add(1);
    }
    void on_progressive_finished() noexcept { progressive_active_.add(-1); }
    [[nodiscard]] std::int64_t progressive_active() const noexcept
    {
        return progressive_active_.value();
    }
    void on_layer_emitted() noexcept { layers_.add(); }
    void on_progressive_cancelled() noexcept { progressive_cancelled_.add(); }
    void add_t1_segment_bytes(std::uint64_t n) noexcept { t1_bytes_.add(n); }
    void on_pool_submission() noexcept { pool_submissions_.add(); }
    /// One decode's stage wall times and tile count (see codec::stage_profile).
    void add_stages(const codec::stage_profile& p) noexcept
    {
        tiles_.add(p.tiles);
        entropy_ns_.add(p.entropy_ns);
        iq_ns_.add(p.iq_ns);
        idwt_ns_.add(p.idwt_ns);
        finish_ns_.add(p.finish_ns);
    }

    // Per-codec outcome counters, indexed by codec wire id; only ids that
    // have seen traffic appear in a snapshot.
    void on_codec_completed(std::uint8_t id) noexcept { codec_[id].completed.add(); }
    void on_codec_failed(std::uint8_t id) noexcept { codec_[id].failed.add(); }
    void on_codec_unsupported(std::uint8_t id) noexcept { codec_[id].unsupported.add(); }

    void record_latency_us(priority p, std::uint64_t us) noexcept
    {
        latency_.observe(us);
        prio_latency_[static_cast<std::size_t>(p)].observe(us);
    }

    [[nodiscard]] metrics_snapshot snapshot() const;

private:
    obs::counter submitted_;
    obs::counter completed_;
    obs::counter failed_;
    obs::counter rejected_;
    obs::counter dropped_;
    obs::counter batched_;
    obs::counter progressive_;
    obs::counter layers_;
    obs::counter progressive_cancelled_;
    obs::counter t1_bytes_;
    obs::gauge progressive_active_;
    obs::counter pool_submissions_;
    obs::counter tiles_;
    obs::counter entropy_ns_;
    obs::counter iq_ns_;
    obs::counter idwt_ns_;
    obs::counter finish_ns_;
    std::array<obs::counter, priority_count> prio_rejected_;
    std::array<obs::counter, priority_count> prio_dropped_;
    obs::log2_histogram latency_;
    std::array<obs::log2_histogram, priority_count> prio_latency_;

    struct codec_counters {
        obs::counter completed;
        obs::counter failed;
        obs::counter unsupported;
    };
    std::array<codec_counters, 256> codec_;
};

}  // namespace runtime
