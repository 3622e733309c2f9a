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
// The mixed-priority phase floods one small worker pool with batch jobs and a
// trickle of interactive arrivals; the acceptance signal is interactive p99
// below batch p99 with zero starvation (every future completes).
//
// The zipf phase replays a fixed power-law request sequence over 8 distinct
// codestreams through a 1-worker service with the decoded-result cache off,
// then on; the acceptance signal is a throughput ratio >= 2 at a hit rate
// >= 0.8 with every response matching its direct-decode digest (hashes_ok) —
// cached responses are futures unpacked from the packed entries.  The timed
// window ends when every future is ready; the digests are checked after it.  After the
// cached run it reports the cache's charged bytes and entries and the summed
// size of the inputs the entries keep, so (cache_bytes - input_bytes) /
// entries is the bytes one 256×256×3 8-bit result costs resident.
//
// The ops_scrape phase runs a hot cached workload undisturbed and again with
// a live ops server scraped over HTTP at 10 Hz, each side repeating its batch
// of `jobs` until it has run for at least 1 s; the acceptance signal is ratio
// (scraped / base) > 0.95 — observing the service costs under 5%.
//
// The whole run is recorded by the obs span tracer (when compiled in) and
// dumped to a Chrome trace-event file — argv[2], default
// runtime_throughput.trace.json — pass "none" to benchmark with the tracer
// disarmed (for overhead A/B against an OBS_TRACING=OFF build).
#include <obs/trace.hpp>
#include <runtime/service.hpp>

#include <j2k/j2k.hpp>

#include <runtime/hash.hpp>
#include <runtime/ops/http_client.hpp>
#include <runtime/ops/ops_server.hpp>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace {

struct run_result {
    int workers = 0;
    int jobs = 0;
    double seconds = 0.0;
    runtime::metrics_snapshot metrics;
};

run_result run_with_workers(const std::vector<std::uint8_t>& cs, int workers, int jobs)
{
    runtime::decode_service svc{{.workers = workers,
                                 .queue_capacity = 256,
                                 .policy = runtime::backpressure::block,
                                 .copy_input = false}};
    // Warm-up: touch every worker once before timing.
    svc.submit(cs).get();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<j2k::image>> futs;
    futs.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) futs.push_back(svc.submit(cs));
    for (auto& f : futs) (void)f.get();
    const auto t1 = std::chrono::steady_clock::now();
    run_result r;
    r.workers = workers;
    r.jobs = jobs;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.metrics = svc.metrics();
    return r;
}

/// Zipf-distributed serving phase: M distinct codestreams requested under a
/// power-law popularity (the cache's design assumption), once with the
/// decoded-result cache off and once with it on.  Fixed seed, precomputed
/// CDF — the request sequence is identical across both runs and across
/// machines, so hit rate is reproducible and the golden digests prove the
/// cached path stays bit-exact.
struct zipf_result {
    double cold_jps = 0.0;
    double cached_jps = 0.0;
    double hit_rate = 0.0;
    std::uint64_t collapses = 0;
    bool hashes_ok = true;
    std::uint64_t cache_bytes = 0;    ///< charged bytes after the cached run
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
    zipf_result z;
    for (const bool cached : {false, true}) {
        runtime::decode_service svc{{.workers = 1,
                                     .queue_capacity = 256,
                                     .policy = runtime::backpressure::block,
                                     .cache_bytes = cached ? (256u << 20) : 0}};
        svc.submit(streams[0]).get();  // warm-up (primes rank 1 when cached)
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::future<j2k::image>> futs;
        futs.reserve(sequence.size());
        for (const int r : sequence)
            futs.push_back(svc.submit(streams[static_cast<std::size_t>(r)]));
        for (auto& f : futs) f.wait();
        const auto t1 = std::chrono::steady_clock::now();
        // Digests are checked outside the timed window: at ~2.4 ms per image
        // they would weigh as much as the cached run's decodes.
        for (std::size_t i = 0; i < futs.size(); ++i) {
            const auto rank = static_cast<std::size_t>(sequence[i]);
            if (runtime::fnv1a_image(futs[i].get()) != digests[rank]) z.hashes_ok = false;
        }
        const double jps = static_cast<double>(requests) /
                           std::chrono::duration<double>(t1 - t0).count();
        const auto m = svc.metrics();
        if (cached) {
            z.cached_jps = jps;
            const double served = static_cast<double>(m.cache_hits + m.cache_misses +
                                                      m.cache_collapses);
            z.hit_rate = served > 0
                             ? static_cast<double>(m.cache_hits + m.cache_collapses) /
                                   served
                             : 0.0;
            z.collapses = m.cache_collapses;
            z.cache_bytes = m.cache_bytes;
            z.cache_entries = m.cache_entries;
            // The budget holds all 8 results, so every stream requested (and
            // rank 1, the warm-up) is resident, keeping its job's exact copy.
            std::vector<bool> seen(streams.size(), false);
            seen[0] = true;
            for (const int r : sequence) seen[static_cast<std::size_t>(r)] = true;
            for (std::size_t i = 0; i < streams.size(); ++i)
                if (seen[i]) z.input_bytes += streams[i].size();
        } else {
            z.cold_jps = jps;
        }
    }
    return z;
}

/// Batch flood + interactive trickle through one pool: the per-priority
/// percentiles are the point, so the queue must actually fill (1 worker).
runtime::metrics_snapshot run_mixed_priority(const std::vector<std::uint8_t>& cs,
                                             int jobs)
{
    runtime::decode_service svc{{.workers = 1,
                                 .queue_capacity = 256,
                                 .policy = runtime::backpressure::block,
                                 .promote_after = 8,
                                 .copy_input = false}};
    svc.submit(cs).get();  // warm-up
    std::vector<std::future<j2k::image>> futs;
    futs.reserve(static_cast<std::size_t>(jobs));
    // 3:1 batch:interactive, batch first so interactive arrivals always find
    // a backlog to jump.
    for (int i = 0; i < jobs; ++i)
        futs.push_back(svc.submit(cs, (i % 4 == 3) ? runtime::priority::interactive
                                                   : runtime::priority::batch));
    for (auto& f : futs) (void)f.get();  // no starvation: every future completes
    return svc.metrics();
}

/// Ops-plane scrape overhead: the same Zipf cached-serving workload twice —
/// undisturbed, then with a live ops server being scraped over HTTP at 10 Hz
/// (Prometheus cadence is usually slower; 10 Hz is the hostile case).  The
/// acceptance signal is throughput_ratio (scraped / base) close to 1 — CI
/// gates on > 0.95, i.e. observing the service costs < 5% of its throughput.
struct scrape_result {
    double base_jps = 0.0;
    double scraped_jps = 0.0;
    std::uint64_t scrapes = 0;
    std::uint64_t scrape_bytes = 0;
};

scrape_result run_ops_scrape(const std::vector<std::uint8_t>& cs, int jobs)
{
    constexpr std::chrono::seconds k_min_window{1};
    scrape_result sr;
    for (const bool scraped : {false, true}) {
        runtime::decode_service svc{{.workers = 4,
                                     .queue_capacity = 256,
                                     .policy = runtime::backpressure::block,
                                     .copy_input = false,
                                     .cache_bytes = 64u << 20}};
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
        svc.submit(cs).get();  // warm-up
        // Whole batches until at least k_min_window has passed: one batch of
        // hot cached jobs runs well under the scrape interval, so a single
        // one would see at most a scrape or two and any host hiccup.
        const auto t0 = std::chrono::steady_clock::now();
        auto t1 = t0;
        std::uint64_t done = 0;
        std::vector<std::future<j2k::image>> futs;
        futs.reserve(static_cast<std::size_t>(jobs));
        while (t1 - t0 < k_min_window) {
            futs.clear();
            for (int i = 0; i < jobs; ++i) futs.push_back(svc.submit(cs));
            for (auto& f : futs) (void)f.get();
            done += static_cast<std::uint64_t>(jobs);
            t1 = std::chrono::steady_clock::now();
        }
        const double jps = static_cast<double>(done) /
                           std::chrono::duration<double>(t1 - t0).count();
        if (scraped) {
            sr.scraped_jps = jps;
            stop.store(true, std::memory_order_relaxed);
            scraper.join();
            ops->stop();
        } else {
            sr.base_jps = jps;
        }
    }
    return sr;
}

}  // namespace

int main(int argc, char** argv)
{
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

    if (tracing) {
        const std::size_t evs = obs::tracer::instance().write_json_file(trace_path);
        const auto st = obs::tracer::instance().get_stats();
        std::printf(",\"trace_file\":\"%s\",\"trace_events\":%zu,"
                    "\"trace_threads\":%zu,\"trace_overwritten\":%llu",
                    trace_path, evs, st.threads,
                    static_cast<unsigned long long>(st.overwritten));
    }
    std::printf("}\n");
    return 0;
}
