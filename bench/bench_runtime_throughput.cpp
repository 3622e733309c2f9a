// bench_runtime_throughput — batch-decode service throughput and latency vs
// worker count, on the paper's 16-tile workload scaled up, plus a
// mixed-priority phase exercising the two-level admission queue.
//
// Emits a single JSON object so the harness (and CI) can track jobs/sec and
// latency percentiles over time:
//   { "bench": "runtime_throughput", "hardware_concurrency": N,
//     "results": [ {"workers":1, "jobs_per_sec":..., "p50_us":...,
//                   "steals":...}, ... ],
//     "speedup_max_vs_1": ...,
//     "mixed_priority": { "interactive": {"count":..,"p50_us":..,"p99_us":..},
//                         "batch": {...}, "promotions":.., "steals":.. },
//     "zipf": { "cold_jobs_per_sec":.., "cached_jobs_per_sec":..,
//               "throughput_ratio":.., "hit_rate":.., "hashes_ok":true,
//               "cache_bytes":.., "cache_entries":.., "input_bytes":.. },
//     "ops_scrape": { "base_jobs_per_sec":.., "scraped_jobs_per_sec":..,
//                     "ratio":.., "scrapes":.. } }
//
// Every phase submits through decode_service::submit_async, the delivery the
// J2NE server uses: each job moves in its own copy of the codestream and
// settles through a completion that receives the packed result.
//
// The mixed-priority phase floods one small worker pool with batch jobs and a
// trickle of interactive arrivals; the acceptance signal is interactive p99
// below batch p99 with zero starvation (every job completes).
//
// The zipf phase replays a fixed power-law request sequence over 8 distinct
// codestreams through 1-worker services with the decoded-result cache off
// and on, in alternating windows (a quarter of the cold run, then a whole
// cached run on a fresh service, four times); the acceptance signal is a
// throughput ratio >= 2 at a hit rate >= 0.8 with every response matching
// its direct-decode digest (hashes_ok) — cached responses are the packed
// entries themselves.  Each timed window ends when every job in it has
// settled; the results are unpacked and their digests checked after it.
// After the last cached run it reports the cache's charged bytes and entries
// and the summed size of the inputs the entries keep, so (cache_bytes -
// input_bytes) / entries is the bytes one 256×256×3 8-bit result costs
// resident.
//
// The ops_scrape phase runs a hot cached workload in alternating windows,
// undisturbed and with a live ops server scraped over HTTP at 10 Hz, each
// window repeating its batch of `jobs` for at least 250 ms, 2 s a side; the
// acceptance signal is ratio (scraped / base) > 0.95 — observing the service
// costs under 5%.
//
// The run is recorded by the obs span tracer (when compiled in), and the
// phases before ops_scrape are dumped to a Chrome trace-event file — argv[2],
// default runtime_throughput.trace.json — pass "none" to benchmark with the
// tracer disarmed (for overhead A/B against an OBS_TRACING=OFF build).
//
// glibc's malloc thresholds are fixed at start (mmap above 32 MiB, trim above
// 64 MiB): left dynamic, they move with the largest block freed so far, and
// every ratio would follow whichever phase freed it.
#include <obs/trace.hpp>
#include <runtime/service.hpp>

#include <j2k/j2k.hpp>

#include <runtime/hash.hpp>
#include <runtime/ops/http_client.hpp>
#include <runtime/ops/ops_server.hpp>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

namespace {

using packed_result = std::shared_ptr<const runtime::raw_image>;

/// Counts a service's settled jobs.  Every completion it hands out stores the
/// result where asked and counts one; wait_for(n) returns once n jobs have
/// settled and throws if any failed.  Declared before the service it counts,
/// so it outlives every completion that service runs.
class settle_counter {
public:
    runtime::decode_service::completion done(packed_result* out = nullptr)
    {
        return [this, out](packed_result img, std::exception_ptr err) {
            if (out != nullptr) *out = std::move(img);
            std::lock_guard lk{m_};
            if (err) ++failed_;
            ++settled_;
            cv_.notify_all();
        };
    }

    void wait_for(std::uint64_t n)
    {
        std::unique_lock lk{m_};
        cv_.wait(lk, [&] { return settled_ >= n; });
        if (failed_ > 0) throw std::runtime_error{"bench: a decode job failed"};
    }

private:
    std::mutex m_;
    std::condition_variable cv_;
    std::uint64_t settled_ = 0;
    std::uint64_t failed_ = 0;
};

/// One job with its own copy of `cs`, as a socket read hands the server one.
void submit(runtime::decode_service& svc, const std::vector<std::uint8_t>& cs,
            settle_counter& settled, const runtime::decode_options& opt = {},
            packed_result* out = nullptr)
{
    svc.submit_async(std::vector<std::uint8_t>{cs}, opt, settled.done(out));
}

struct run_result {
    int workers = 0;
    int jobs = 0;
    double seconds = 0.0;
    runtime::metrics_snapshot metrics;
};

run_result run_with_workers(const std::vector<std::uint8_t>& cs, int workers, int jobs)
{
    settle_counter settled;
    runtime::decode_service svc{{.workers = workers,
                                 .queue_capacity = 256,
                                 .policy = runtime::backpressure::block}};
    // Warm-up: touch every worker once before timing.
    submit(svc, cs, settled);
    settled.wait_for(1);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < jobs; ++i) submit(svc, cs, settled);
    settled.wait_for(1 + static_cast<std::uint64_t>(jobs));
    const auto t1 = std::chrono::steady_clock::now();
    run_result r;
    r.workers = workers;
    r.jobs = jobs;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.metrics = svc.metrics();
    return r;
}

/// Zipf-distributed serving phase: M distinct codestreams requested under a
/// power-law popularity (the cache's design assumption), with the
/// decoded-result cache off and with it on.  Fixed seed, precomputed CDF —
/// the request sequence is identical across all runs and across machines, so
/// hit rate is reproducible and the golden digests prove the cached path
/// stays bit-exact.
struct zipf_result {
    double cold_jps = 0.0;
    double cached_jps = 0.0;
    double hit_rate = 0.0;
    std::uint64_t collapses = 0;
    bool hashes_ok = true;
    std::uint64_t cache_bytes = 0;    ///< charged bytes after the last cached run
    std::uint64_t cache_entries = 0;  ///< result entries resident after it
    std::uint64_t input_bytes = 0;    ///< summed size of those entries' inputs
};

zipf_result run_zipf(int requests)
{
    constexpr int distinct = 8;
    constexpr double skew = 1.1;

    std::vector<std::vector<std::uint8_t>> streams;
    std::vector<std::uint64_t> digests;
    for (int i = 0; i < distinct; ++i) {
        // Distinct content per stream (seed varies) on the same geometry.
        j2k::codec_params p;
        p.tile_width = 64;
        p.tile_height = 64;
        streams.push_back(
            j2k::encode(j2k::make_test_image(256, 256, 3, 8, 100 + i), p));
        digests.push_back(runtime::fnv1a_image(j2k::decode(streams.back())));
    }

    // Zipf CDF over ranks 1..distinct, sampled with a fixed-seed generator.
    std::vector<double> cdf(distinct);
    double mass = 0.0;
    for (int i = 0; i < distinct; ++i) mass += 1.0 / std::pow(i + 1, skew);
    double acc = 0.0;
    for (int i = 0; i < distinct; ++i) {
        acc += 1.0 / std::pow(i + 1, skew) / mass;
        cdf[static_cast<std::size_t>(i)] = acc;
    }
    std::mt19937 rng{12345};
    std::uniform_real_distribution<double> uni{0.0, 1.0};
    std::vector<int> sequence;
    sequence.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        const double u = uni(rng);
        int r = 0;
        while (r < distinct - 1 && u > cdf[static_cast<std::size_t>(r)]) ++r;
        sequence.push_back(r);
    }

    // One worker on both sides, as in the mixed-priority phase, so the ratio
    // measures the cache and not the host's core count: with more workers the
    // cold run's tile fan-out speeds up with the host's cores and the ratio
    // falls with them.
    //
    // The cold run is timed in k_rounds chunks of the sequence, each followed
    // by a whole cached run on a fresh service, so every cached run misses and
    // hits alike.  A drift of the host's speed over the phase then weighs on
    // both sides alike, and the cached side, whose time is its ~7 misses'
    // decodes, is timed k_rounds times instead of once.
    constexpr int k_rounds = 4;
    const std::size_t n = sequence.size();
    const auto run = [&](runtime::decode_service& svc, settle_counter& settled,
                         std::uint64_t& submitted, std::size_t lo, std::size_t hi,
                         std::vector<packed_result>& results) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = lo; i < hi; ++i)
            submit(svc, streams[static_cast<std::size_t>(sequence[i])], settled, {},
                   &results[i]);
        submitted += hi - lo;
        settled.wait_for(submitted);
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    };
    // Digests are checked outside the timed windows: at ~2.4 ms per image
    // they would weigh as much as a cached run's decodes.
    zipf_result z;
    const auto check = [&](const std::vector<packed_result>& results) {
        for (std::size_t i = 0; i < n; ++i) {
            const auto rank = static_cast<std::size_t>(sequence[i]);
            if (runtime::fnv1a_image(results[i]->unpack()) != digests[rank])
                z.hashes_ok = false;
        }
    };
    settle_counter cold_settled;
    std::vector<packed_result> cold_results(n);
    runtime::decode_service cold{{.workers = 1,
                                  .queue_capacity = 256,
                                  .policy = runtime::backpressure::block,
                                  .cache_bytes = 0}};
    submit(cold, streams[0], cold_settled);  // warm-up
    std::uint64_t cold_submitted = 1;
    cold_settled.wait_for(1);
    double cold_s = 0.0, cached_s = 0.0;
    for (int r = 0; r < k_rounds; ++r) {
        cold_s += run(cold, cold_settled, cold_submitted, n * r / k_rounds,
                      n * (r + 1) / k_rounds, cold_results);
        settle_counter settled;
        std::vector<packed_result> results(n);
        runtime::decode_service svc{{.workers = 1,
                                     .queue_capacity = 256,
                                     .policy = runtime::backpressure::block,
                                     .cache_bytes = 256u << 20}};
        submit(svc, streams[0], settled);  // warm-up: primes rank 1
        std::uint64_t submitted = 1;
        settled.wait_for(1);
        cached_s += run(svc, settled, submitted, 0, n, results);
        check(results);
        if (r + 1 < k_rounds) continue;
        const auto m = svc.metrics();
        const double served =
            static_cast<double>(m.cache_hits + m.cache_misses + m.cache_collapses);
        z.hit_rate = served > 0
                         ? static_cast<double>(m.cache_hits + m.cache_collapses) / served
                         : 0.0;
        z.collapses = m.cache_collapses;
        z.cache_bytes = m.cache_bytes;
        z.cache_entries = m.cache_entries;
        // The budget holds all 8 results, so every stream requested (and
        // rank 1, the warm-up) is resident, keeping its job's exact copy.
        std::vector<bool> seen(streams.size(), false);
        seen[0] = true;
        for (const int rank : sequence) seen[static_cast<std::size_t>(rank)] = true;
        for (std::size_t i = 0; i < streams.size(); ++i)
            if (seen[i]) z.input_bytes += streams[i].size();
    }
    check(cold_results);
    z.cold_jps = static_cast<double>(n) / cold_s;
    z.cached_jps = static_cast<double>(n) * k_rounds / cached_s;
    return z;
}

/// Batch flood + interactive trickle through one pool: the per-priority
/// percentiles are the point, so the queue must actually fill (1 worker).
runtime::metrics_snapshot run_mixed_priority(const std::vector<std::uint8_t>& cs,
                                             int jobs)
{
    settle_counter settled;
    runtime::decode_service svc{{.workers = 1,
                                 .queue_capacity = 256,
                                 .policy = runtime::backpressure::block,
                                 .promote_after = 8}};
    submit(svc, cs, settled);  // warm-up
    settled.wait_for(1);
    // 3:1 batch:interactive, batch first so interactive arrivals always find
    // a backlog to jump.
    for (int i = 0; i < jobs; ++i)
        submit(svc, cs, settled,
               {.prio = (i % 4 == 3) ? runtime::priority::interactive
                                     : runtime::priority::batch});
    // No starvation: every job completes.
    settled.wait_for(1 + static_cast<std::uint64_t>(jobs));
    return svc.metrics();
}

/// Ops-plane scrape overhead: one hot cached service (the Zipf serving case
/// at its limit), its throughput measured in alternating windows without and
/// with a live ops server scraped over HTTP at 10 Hz (Prometheus cadence is
/// usually slower; 10 Hz is the hostile case).  The acceptance signal is
/// throughput_ratio (scraped / base) close to 1 — CI gates on > 0.95, i.e.
/// observing the service costs < 5% of its throughput.
///
/// The windows run in ABBA order (base, scraped, scraped, base, ...) over
/// one service, so the two sides share its cache, its workers and the
/// allocator's state, and a drift of the host's speed over the phase weighs
/// on both sides alike instead of on whichever side ran second.  Each scraped
/// window builds its own ops server and scraper and tears them down after its
/// clock stops; the server's cursor starts when it is built, so its drains
/// read only that window's events, as a long-lived plane's do.  It sees only
/// the hits' spans, so its exposition lacks the decode stages a plane that
/// has seen a miss renders (~8 KB a scrape instead of ~13 KB).
struct scrape_result {
    double base_jps = 0.0;
    double scraped_jps = 0.0;
    std::uint64_t scrapes = 0;
    std::uint64_t scrape_bytes = 0;
};

scrape_result run_ops_scrape(const std::vector<std::uint8_t>& cs, int jobs)
{
    constexpr int k_windows = 16;  // per side: k_windows / 2
    constexpr std::chrono::milliseconds k_min_window{250};
    settle_counter settled;
    runtime::decode_service svc{{.workers = 4,
                                 .queue_capacity = 256,
                                 .policy = runtime::backpressure::block,
                                 .cache_bytes = 64u << 20}};
    submit(svc, cs, settled);  // warm-up: the miss that fills the cache
    settled.wait_for(1);
    std::uint64_t submitted = 1;
    std::uint64_t done[2] = {0, 0};  // jobs, by side (0 base, 1 scraped)
    double seconds[2] = {0.0, 0.0};
    scrape_result sr;
    // Window -1 is a warm-up and counts for neither side: the first window
    // after the service is built pays first-touch costs (the workers'
    // allocator arenas), which would otherwise weigh on the base side alone.
    for (int w = -1; w < k_windows; ++w) {
        const bool scraped = w % 4 == 1 || w % 4 == 2;
        std::unique_ptr<runtime::ops::ops_server> ops;
        std::thread scraper;
        std::atomic<bool> stop{false};
        if (scraped) {
            runtime::ops::ops_config oc;
            oc.aggregate_interval_ms = 100;
            ops = std::make_unique<runtime::ops::ops_server>(svc, oc);
            ops->start();
            const std::uint16_t port = ops->port();
            scraper = std::thread([&sr, &stop, port] {
                while (!stop.load(std::memory_order_relaxed)) {
                    try {
                        const auto r =
                            runtime::ops::http_get("127.0.0.1", port, "/metrics");
                        if (r.status == 200) {
                            ++sr.scrapes;
                            sr.scrape_bytes += r.body.size();
                        }
                    } catch (const std::exception&) {
                        // Scrape failures must not abort the measurement.
                    }
                    std::this_thread::sleep_for(std::chrono::milliseconds(100));
                }
            });
        }
        // Whole batches until the window has passed: one batch of hot cached
        // jobs runs well under the scrape interval.
        const auto t0 = std::chrono::steady_clock::now();
        auto t1 = t0;
        std::uint64_t n = 0;
        while (t1 - t0 < k_min_window) {
            for (int i = 0; i < jobs; ++i) submit(svc, cs, settled);
            n += static_cast<std::uint64_t>(jobs);
            settled.wait_for(submitted + n);
            t1 = std::chrono::steady_clock::now();
        }
        submitted += n;
        if (w >= 0) {
            done[scraped] += n;
            seconds[scraped] += std::chrono::duration<double>(t1 - t0).count();
        }
        if (scraped) {
            stop.store(true, std::memory_order_relaxed);
            scraper.join();
            ops->stop();
        }
    }
    sr.base_jps = static_cast<double>(done[0]) / seconds[0];
    sr.scraped_jps = static_cast<double>(done[1]) / seconds[1];
    return sr;
}

}  // namespace

int main(int argc, char** argv)
{
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);

    // Multi-tile workload: 256×256 RGB in 64×64 tiles = 16 independent tiles
    // per job (the paper's Table 1 geometry).
    const j2k::image img = j2k::make_test_image(256, 256, 3);
    j2k::codec_params p;
    p.tile_width = 64;
    p.tile_height = 64;
    const auto cs = j2k::encode(img, p);

    const int jobs = std::max(1, argc > 1 ? std::atoi(argv[1]) : 32);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

    const char* trace_path = argc > 2 ? argv[2] : "runtime_throughput.trace.json";
    const bool tracing = obs::tracing_compiled() && std::strcmp(trace_path, "none") != 0;
    obs::tracer::instance().set_enabled(tracing);
    obs::tracer::instance().set_thread_name("bench-main");

    std::printf("{\"bench\":\"runtime_throughput\",\"image\":\"256x256x3\","
                "\"tiles\":16,\"jobs\":%d,\"hardware_concurrency\":%u,"
                "\"results\":[",
                jobs, hw);
    double base_jps = 0.0, best_jps = 0.0;
    bool first = true;
    for (int workers : {1, 2, 4, 8}) {
        const run_result r = run_with_workers(cs, workers, jobs);
        const double jps = static_cast<double>(r.jobs) / r.seconds;
        if (workers == 1) base_jps = jps;
        if (jps > best_jps) best_jps = jps;
        const auto& m = r.metrics;
        std::printf("%s{\"workers\":%d,\"seconds\":%.4f,\"jobs_per_sec\":%.2f,"
                    "\"speedup_vs_1\":%.2f,\"p50_us\":%.1f,\"p95_us\":%.1f,"
                    "\"p99_us\":%.1f,\"mean_us\":%.1f,\"queue_high_water\":%llu,"
                    "\"tiles_decoded\":%llu,\"steals\":%llu}",
                    first ? "" : ",", workers, r.seconds, jps,
                    base_jps > 0 ? jps / base_jps : 0.0, m.latency_p50_us,
                    m.latency_p95_us, m.latency_p99_us, m.latency_mean_us,
                    static_cast<unsigned long long>(m.queue_depth_high_water),
                    static_cast<unsigned long long>(m.tiles_decoded),
                    static_cast<unsigned long long>(m.tasks_stolen));
        first = false;
    }
    std::printf("],\"speedup_max_vs_1\":%.2f", base_jps > 0 ? best_jps / base_jps : 0.0);

    {
        const auto m = run_mixed_priority(cs, jobs);
        const auto& li = m.latency_by_priority[0];
        const auto& lb = m.latency_by_priority[1];
        std::printf(",\"mixed_priority\":{\"jobs\":%llu,\"completed\":%llu,"
                    "\"interactive\":{\"count\":%llu,\"p50_us\":%.1f,\"p99_us\":%.1f},"
                    "\"batch\":{\"count\":%llu,\"p50_us\":%.1f,\"p99_us\":%.1f},"
                    "\"interactive_p99_below_batch_p99\":%s,"
                    "\"promotions\":%llu,\"steals\":%llu}",
                    static_cast<unsigned long long>(m.jobs_submitted),
                    static_cast<unsigned long long>(m.jobs_completed),
                    static_cast<unsigned long long>(li.count), li.p50_us, li.p99_us,
                    static_cast<unsigned long long>(lb.count), lb.p50_us, lb.p99_us,
                    li.p99_us < lb.p99_us ? "true" : "false",
                    static_cast<unsigned long long>(m.jobs_promoted),
                    static_cast<unsigned long long>(m.tasks_stolen));
    }

    {
        const zipf_result z = run_zipf(std::max(64, jobs * 2));
        std::printf(",\"zipf\":{\"distinct\":8,\"requests\":%d,\"skew\":1.1,"
                    "\"cold_jobs_per_sec\":%.2f,\"cached_jobs_per_sec\":%.2f,"
                    "\"throughput_ratio\":%.2f,\"hit_rate\":%.3f,"
                    "\"collapses\":%llu,"
                    "\"hashes_ok\":%s,\"cache_bytes\":%llu,\"cache_entries\":%llu,"
                    "\"input_bytes\":%llu}",
                    std::max(64, jobs * 2), z.cold_jps, z.cached_jps,
                    z.cold_jps > 0 ? z.cached_jps / z.cold_jps : 0.0, z.hit_rate,
                    static_cast<unsigned long long>(z.collapses),
                    z.hashes_ok ? "true" : "false",
                    static_cast<unsigned long long>(z.cache_bytes),
                    static_cast<unsigned long long>(z.cache_entries),
                    static_cast<unsigned long long>(z.input_bytes));
    }

    // The trace file ends here: the ops_scrape phase submits tens of thousands
    // of jobs, whose span events would wrap the submitting thread's ring and
    // leave the file with job ends whose begins were overwritten.  The tracer
    // stays armed through it, since the ops plane aggregates its spans.
    if (tracing) {
        const std::size_t evs = obs::tracer::instance().write_json_file(trace_path);
        const auto st = obs::tracer::instance().get_stats();
        std::printf(",\"trace_file\":\"%s\",\"trace_events\":%zu,"
                    "\"trace_threads\":%zu,\"trace_overwritten\":%llu",
                    trace_path, evs, st.threads,
                    static_cast<unsigned long long>(st.overwritten));
    }

    {
        const scrape_result sr = run_ops_scrape(cs, std::max(128, jobs * 4));
        std::printf(",\"ops_scrape\":{\"jobs\":%d,\"scrape_hz\":10,"
                    "\"base_jobs_per_sec\":%.2f,\"scraped_jobs_per_sec\":%.2f,"
                    "\"ratio\":%.3f,\"scrapes\":%llu,\"scrape_bytes\":%llu}",
                    std::max(128, jobs * 4), sr.base_jps, sr.scraped_jps,
                    sr.base_jps > 0 ? sr.scraped_jps / sr.base_jps : 0.0,
                    static_cast<unsigned long long>(sr.scrapes),
                    static_cast<unsigned long long>(sr.scrape_bytes));
    }

    std::printf("}\n");
    return 0;
}
