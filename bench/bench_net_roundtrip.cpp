// bench_net_roundtrip — socket admission front-end: request/response
// round-trip latency over loopback, and what small-job batching buys.
//
// Emits one JSON object:
//   { "bench": "net_roundtrip",
//     "roundtrip": [ {"payload":"small","bytes":...,"p50_us":...,"p99_us":...,
//                     "mean_us":...}, {"payload":"16-tile", ...},
//                    {"payload":"ccsds-miss", ...}, {"payload":"ccsds-hit", ...} ],
//     "pipelined": {"requests":N,"seconds":...,"requests_per_sec":...},
//     "batching": {"jobs":N,"pool_submissions":...,"saved":...,
//                  "batches":...,"batched_jobs":...},
//     "progressive": {"layers":L,"frames":L,"first_frame_us":...,
//                     "last_frame_us":...,"t1_incremental_bytes":[...],
//                     "t1_session_bytes":...,"t1_naive_bytes":...,
//                     "naive_over_session":...},
//     "shard_scaling": {"conns":C,"cycles_per_conn":N,
//                       "per_shards":[{"shards":1,"conns_per_sec":...,
//                                      "p99_us":...}, {"shards":4, ...}],
//                       "speedup_4_over_1":...},
//     "batching_ratio":...,   // jobs per pool submission (scale-free)
//     "t1_ratio":... }        // naive/session tier-1 bytes (scale-free)
//
// Round-trip phase: serial request→response pairs (client blocks on each),
// measuring the full path — framing, event loop, queue, decode, response
// serialisation, loopback both ways.  The two ccsds rows run the
// `ccsds_zipf` shape (128×128×16 cubes at 12 bits) against a server with the
// serving benchmark's deployment (2 workers, 64 MiB cache): `ccsds-miss`
// sends `iters` distinct cubes once each, so every request leads its own
// cache flight (hash, decode, insert, 512 KiB response); `ccsds-hit` sends
// the last of them, the most recently used entry, `iters` times (lookup,
// shared image, response).  Every ccsds response is checked byte for byte
// against the source cube.  Pipelined phase: all requests written in one
// burst, responses collected as they complete; the batching object shows
// pool submissions < jobs, the admission coalescing the burst enables.
//
// Progressive phase: one streamed request against an L-layer codestream.
// `t1_incremental_bytes[l]` is what the resumable session entropy-decoded for
// refinement l alone — roughly layer l's segments, so the total is ~O(L)
// in layers.  `t1_naive_bytes` is what L independent prefix decodes would
// have cost (every refinement re-reads all earlier segments, ~O(L^2));
// `naive_over_session` is the win.  `first_frame_us` is the time-to-first-
// pixel advantage: the preview lands long before the full decode would have.
//
// Shard-scaling phase: fresh servers at shards=1 and shards=4, requests
// served from the decoded-result cache so decode cost vanishes and the
// measured bottleneck is the front-end itself — accept, frame parse,
// completion delivery, response write.  Each client thread runs full
// connection lifecycles (connect → one request → close), the churn the
// kernel's SO_REUSEPORT hashing spreads across shard listeners.
// `speedup_4_over_1` is scale-free and CI-gated; on a single-core runner it
// sits near 1.0 (the committed baseline is honest about that), on multi-core
// hardware it shows the accept-path scaling.
#include <runtime/net/client.hpp>
#include <runtime/net/server.hpp>

#include <ccsds/ccsds123.hpp>
#include <j2k/j2k.hpp>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace {

namespace net = runtime::net;
using clk = std::chrono::steady_clock;

std::vector<std::uint8_t> make_stream(int w, int h, int comps, int tile)
{
    j2k::codec_params p;
    p.tile_width = tile;
    p.tile_height = tile;
    return j2k::encode(j2k::make_test_image(w, h, comps), p);
}

struct percentiles {
    double p50 = 0, p99 = 0, mean = 0;
};

percentiles summarize(std::vector<double>& us)
{
    std::sort(us.begin(), us.end());
    percentiles p;
    if (us.empty()) return p;
    p.p50 = us[us.size() / 2];
    p.p99 = us[std::min(us.size() - 1, us.size() * 99 / 100)];
    for (const double v : us) p.mean += v;
    p.mean /= static_cast<double>(us.size());
    return p;
}

/// Serial round trips: one in flight at a time, per-request latency.
percentiles bench_roundtrip(net::client& cli, const std::vector<std::uint8_t>& cs,
                            int iters, bool* all_ok)
{
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(iters));
    for (int i = 0; i < iters; ++i) {
        const auto t0 = clk::now();
        const auto r =
            cli.decode({cs, 1, net::result_format::raw,
                        static_cast<std::uint32_t>(i)});
        const auto t1 = clk::now();
        if (!r.ok()) *all_ok = false;
        us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    return summarize(us);
}

struct ccsds_rows {
    std::size_t bytes = 0;  ///< mean codestream size
    percentiles miss, hit;
};

/// The ccsds-miss and ccsds-hit rows (see the header comment).
ccsds_rows bench_ccsds(int iters, bool* all_ok)
{
    std::vector<std::vector<std::uint8_t>> cubes;
    std::vector<std::vector<std::uint8_t>> expect;
    ccsds_rows rows;
    for (int i = 0; i < iters; ++i) {
        const codec::image src =
            codec::make_test_image(128, 128, 16, 12, static_cast<std::uint32_t>(i + 1));
        cubes.push_back(ccsds::encode(src));
        expect.push_back(net::encode_image_raw(src));
        rows.bytes += cubes.back().size() / static_cast<std::size_t>(iters);
    }

    net::server_config cfg;
    cfg.service.workers = 2;
    cfg.service.queue_capacity = 256;
    cfg.service.cache_bytes = 64u << 20;
    net::server srv{cfg};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    const auto time = [&](std::size_t cube, int id) {
        const auto t0 = clk::now();
        const auto r = cli.decode({.codestream = cubes[cube],
                                   .request_id = static_cast<std::uint32_t>(id),
                                   .codec = ccsds::k_codec_wire_id});
        const auto t1 = clk::now();
        if (!r.ok() || r.payload != expect[cube]) *all_ok = false;
        return std::chrono::duration<double, std::micro>(t1 - t0).count();
    };
    std::vector<double> miss, hit;
    for (int i = 0; i < iters; ++i) miss.push_back(time(static_cast<std::size_t>(i), i));
    // The newest cube: still resident however many older ones were evicted.
    const auto last = static_cast<std::size_t>(iters - 1);
    for (int i = 0; i < iters; ++i) hit.push_back(time(last, iters + i));
    const auto m = srv.service().metrics();
    if (m.cache_misses != static_cast<std::uint64_t>(iters) ||
        m.cache_hits != static_cast<std::uint64_t>(iters))
        *all_ok = false;  // every row request took the path its name says
    srv.stop();
    rows.miss = summarize(miss);
    rows.hit = summarize(hit);
    return rows;
}

struct shard_rate {
    double conns_per_sec = 0;
    double p99_us = 0;
};

/// Full connection lifecycles (connect → request → close) from `conns`
/// client threads against a fresh `shards`-shard server.  The decoded-result
/// cache is warmed first so every request is a cache hit and the front-end
/// is the measured path, not tier-1.
shard_rate bench_shard_churn(std::size_t shards,
                             const std::vector<std::uint8_t>& cs, int conns,
                             int cycles_per_conn, bool* all_ok)
{
    net::server_config cfg;
    cfg.service.workers = 2;
    cfg.service.queue_capacity = 256;
    cfg.service.cache_bytes = 32u << 20;  // hits after the warm-up decode
    cfg.shards = shards;
    net::server srv{cfg};
    srv.start();
    {
        net::client warm{"127.0.0.1", srv.port()};
        if (!warm.decode({cs, 1, net::result_format::raw, 0}).ok())
            *all_ok = false;
    }

    std::vector<double> cycle_us(
        static_cast<std::size_t>(conns) * static_cast<std::size_t>(cycles_per_conn));
    std::atomic<bool> threads_ok{true};
    std::vector<std::thread> threads;
    const auto t0 = clk::now();
    for (int c = 0; c < conns; ++c)
        threads.emplace_back([&, c] {
            for (int i = 0; i < cycles_per_conn; ++i) {
                const auto c0 = clk::now();
                net::client cli{"127.0.0.1", srv.port()};
                if (!cli.decode({cs, 1, net::result_format::raw,
                                 static_cast<std::uint32_t>(i)})
                         .ok())
                    threads_ok = false;
                cycle_us[static_cast<std::size_t>(c) *
                             static_cast<std::size_t>(cycles_per_conn) +
                         static_cast<std::size_t>(i)] =
                    std::chrono::duration<double, std::micro>(clk::now() - c0)
                        .count();
            }
        });
    for (auto& t : threads) t.join();
    const double secs = std::chrono::duration<double>(clk::now() - t0).count();
    if (!threads_ok) *all_ok = false;
    srv.stop();

    shard_rate r;
    const percentiles p = summarize(cycle_us);
    r.p99_us = p.p99;
    r.conns_per_sec =
        secs > 0 ? static_cast<double>(cycle_us.size()) / secs : 0.0;
    return r;
}

}  // namespace

int main(int argc, char** argv)
{
    const int iters = std::max(1, argc > 1 ? std::atoi(argv[1]) : 32);

    const auto small = make_stream(64, 64, 1, 64);     // one-tile job
    const auto tiled = make_stream(256, 256, 3, 64);   // the paper's 16-tile job

    net::server_config cfg;
    cfg.service.workers = 0;  // hardware concurrency
    cfg.service.queue_capacity = 256;
    cfg.small_job_threshold = 1u << 20;
    net::server srv{cfg};
    srv.start();

    bool ok = true;
    // Scale-free ratios surfaced as top-level keys so CI can gate regressions
    // without caring about absolute machine speed.
    double batching_ratio = 0.0;  // jobs per pool submission (coalescing win)
    double t1_ratio = 0.0;        // naive prefix decodes over resumable session
    std::printf("{\"bench\":\"net_roundtrip\",\"iters\":%d,\"roundtrip\":[", iters);
    {
        net::client cli{"127.0.0.1", srv.port()};
        (void)cli.decode({small, 1, net::result_format::raw, 0});  // warm-up
        const percentiles ps = bench_roundtrip(cli, small, iters, &ok);
        std::printf("{\"payload\":\"small\",\"bytes\":%zu,\"p50_us\":%.1f,"
                    "\"p99_us\":%.1f,\"mean_us\":%.1f}",
                    small.size(), ps.p50, ps.p99, ps.mean);
        const percentiles pt = bench_roundtrip(cli, tiled, iters, &ok);
        std::printf(",{\"payload\":\"16-tile\",\"bytes\":%zu,\"p50_us\":%.1f,"
                    "\"p99_us\":%.1f,\"mean_us\":%.1f}",
                    tiled.size(), pt.p50, pt.p99, pt.mean);
        const ccsds_rows cr = bench_ccsds(iters, &ok);
        for (const auto& [name, p] : {std::pair{"ccsds-miss", cr.miss},
                                      std::pair{"ccsds-hit", cr.hit}})
            std::printf(",{\"payload\":\"%s\",\"bytes\":%zu,\"p50_us\":%.1f,"
                        "\"p99_us\":%.1f,\"mean_us\":%.1f}",
                        name, cr.bytes, p.p50, p.p99, p.mean);
    }
    std::printf("]");

    // Pipelined burst: every request written up front in one send, then the
    // responses drained — this is the path the batcher accelerates.
    {
        net::client cli{"127.0.0.1", srv.port()};
        const auto before = srv.service().metrics();
        std::vector<net::request> reqs;
        for (int i = 0; i < iters; ++i)
            reqs.push_back({small, 1, net::result_format::raw,
                            static_cast<std::uint32_t>(i)});
        const auto t0 = clk::now();
        cli.send_burst(reqs);
        for (int i = 0; i < iters; ++i)
            if (!cli.recv().ok()) ok = false;
        const auto t1 = clk::now();
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        const auto after = srv.service().metrics();
        const auto st = srv.stats();
        const std::uint64_t jobs = after.jobs_submitted - before.jobs_submitted;
        const std::uint64_t subs = after.pool_submissions - before.pool_submissions;
        std::printf(",\"pipelined\":{\"requests\":%d,\"seconds\":%.4f,"
                    "\"requests_per_sec\":%.1f}",
                    iters, secs, static_cast<double>(iters) / secs);
        batching_ratio =
            subs ? static_cast<double>(jobs) / static_cast<double>(subs) : 0.0;
        std::printf(",\"batching\":{\"jobs\":%llu,\"pool_submissions\":%llu,"
                    "\"saved\":%llu,\"batches\":%llu,\"batched_jobs\":%llu}",
                    static_cast<unsigned long long>(jobs),
                    static_cast<unsigned long long>(subs),
                    static_cast<unsigned long long>(jobs - std::min(jobs, subs)),
                    static_cast<unsigned long long>(st.batches),
                    static_cast<unsigned long long>(st.batched_jobs));
    }
    // Progressive stream: one request, one frame per quality layer.  The
    // incremental tier-1 byte counts demonstrate the resumable session's
    // ~O(L) total work vs the ~O(L^2) of decoding every prefix from scratch.
    {
        j2k::codec_params lp;
        lp.tile_width = 64;
        lp.tile_height = 64;
        lp.quality_layers = 6;
        const auto layered = j2k::encode(j2k::make_test_image(256, 256, 3), lp);

        // Ground truth from a local session: per-refinement segment bytes.
        std::vector<std::uint64_t> inc;
        {
            j2k::decode_session s{layered};
            std::uint64_t prev = 0;
            for (int l = 1; l <= s.total_layers(); ++l) {
                (void)s.advance_to(l);
                inc.push_back(s.tier1_segment_bytes() - prev);
                prev = s.tier1_segment_bytes();
            }
        }
        std::uint64_t session_bytes = 0, naive_bytes = 0, prefix = 0;
        for (const std::uint64_t b : inc) {
            session_bytes += b;
            prefix += b;           // layers 1..l, what a fresh decode reads
            naive_bytes += prefix; // one fresh decode per refinement
        }

        const auto before = srv.service().metrics();
        net::client cli{"127.0.0.1", srv.port()};
        std::vector<double> frame_us;
        const auto t0 = clk::now();
        const auto fin = cli.decode_progressive(
            {layered, 0, net::result_format::raw, 1},
            [&](const net::layer_frame&) {
                frame_us.push_back(std::chrono::duration<double, std::micro>(
                                       clk::now() - t0)
                                       .count());
            });
        if (fin.st != net::status::streaming) ok = false;
        const auto after = srv.service().metrics();
        if (after.t1_segment_bytes - before.t1_segment_bytes != session_bytes)
            ok = false;  // server-side accounting must match the local session

        std::printf(",\"progressive\":{\"layers\":%zu,\"frames\":%zu,"
                    "\"first_frame_us\":%.1f,\"last_frame_us\":%.1f,"
                    "\"t1_incremental_bytes\":[",
                    inc.size(), frame_us.size(),
                    frame_us.empty() ? 0.0 : frame_us.front(),
                    frame_us.empty() ? 0.0 : frame_us.back());
        for (std::size_t i = 0; i < inc.size(); ++i)
            std::printf("%s%llu", i ? "," : "",
                        static_cast<unsigned long long>(inc[i]));
        t1_ratio = session_bytes ? static_cast<double>(naive_bytes) /
                                       static_cast<double>(session_bytes)
                                 : 0.0;
        std::printf("],\"t1_session_bytes\":%llu,\"t1_naive_bytes\":%llu,"
                    "\"naive_over_session\":%.2f}",
                    static_cast<unsigned long long>(session_bytes),
                    static_cast<unsigned long long>(naive_bytes), t1_ratio);
    }
    // Shard-scaling: connection-churn throughput at 1 vs 4 event-loop shards.
    {
        const int conns = 4;
        const int cycles = std::max(8, iters);
        const shard_rate one = bench_shard_churn(1, small, conns, cycles, &ok);
        const shard_rate four = bench_shard_churn(4, small, conns, cycles, &ok);
        const double speedup =
            one.conns_per_sec > 0 ? four.conns_per_sec / one.conns_per_sec : 0.0;
        std::printf(
            ",\"shard_scaling\":{\"conns\":%d,\"cycles_per_conn\":%d,"
            "\"payload_bytes\":%zu,\"per_shards\":["
            "{\"shards\":1,\"conns_per_sec\":%.1f,\"p99_us\":%.1f},"
            "{\"shards\":4,\"conns_per_sec\":%.1f,\"p99_us\":%.1f}],"
            "\"speedup_4_over_1\":%.2f}",
            conns, cycles, small.size(), one.conns_per_sec, one.p99_us,
            four.conns_per_sec, four.p99_us, speedup);
    }
    std::printf(",\"batching_ratio\":%.2f,\"t1_ratio\":%.2f,\"all_ok\":%s}\n",
                batching_ratio, t1_ratio, ok ? "true" : "false");
    srv.stop();
    return ok ? 0 : 1;
}
