// HTTP ops plane: request parsing (torn, oversized, garbage), endpoint
// behaviour over a real loopback socket, /metrics scraped concurrently with
// decode load (the TSan leg), /readyz flipping while the service drains, and
// /trace emitting valid, disjoint, concatenable JSON.
#include <runtime/ops/http.hpp>
#include <runtime/ops/http_client.hpp>
#include <runtime/ops/ops_server.hpp>

#include "socket_probe.hpp"
#include "submit_future.hpp"

#include <ccsds/ccsds123.hpp>

#include <j2k/j2k.hpp>
#include <obs/obs.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

namespace {

using runtime::ops::http_parser;
using runtime::ops::http_request;
using test_support::submit;

// ---------------------------------------------------------------------------
// Parser unit tests (no sockets).

TEST(HttpParser, SimpleGetParses)
{
    http_parser p;
    EXPECT_EQ(p.feed("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
              http_parser::state::complete);
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().path, "/metrics");
    EXPECT_TRUE(p.request().query.empty());
}

TEST(HttpParser, TornRequestAssemblesAcrossFeeds)
{
    http_parser p;
    // Byte-at-a-time delivery: the parser must stay partial until the blank
    // line lands, then produce the same parse as a single feed.
    const std::string req = "GET /trace?since_ns=123 HTTP/1.1\r\nA: b\r\n\r\n";
    for (std::size_t i = 0; i + 1 < req.size(); ++i)
        ASSERT_EQ(p.feed({&req[i], 1}), http_parser::state::partial) << "at byte " << i;
    EXPECT_EQ(p.feed({&req[req.size() - 1], 1}), http_parser::state::complete);
    EXPECT_EQ(p.request().path, "/trace");
    EXPECT_EQ(p.request().query, "since_ns=123");
    EXPECT_EQ(runtime::ops::query_param(p.request().query, "since_ns"), "123");
}

TEST(HttpParser, GarbageRequestLineIsBad)
{
    for (const char* bad : {
             "NOT-HTTP\r\n\r\n",                    // no spaces
             "GET\r\n\r\n",                          // method only
             "GET  HTTP/1.1\r\n\r\n",                // empty target
             "GET / b a d HTTP/1.1\r\n\r\n",         // too many spaces
             "GET /x SPDY/3\r\n\r\n",                // not an HTTP version
             "GET metrics HTTP/1.1\r\n\r\n",         // target missing '/'
             "\r\n\r\n",                             // empty request line
         }) {
        http_parser p;
        EXPECT_EQ(p.feed(bad), http_parser::state::bad) << bad;
    }
}

TEST(HttpParser, OversizedHeaderBlockIsRejected)
{
    http_parser p{128};
    std::string big = "GET /metrics HTTP/1.1\r\n";
    big += "X-Padding: " + std::string(200, 'a') + "\r\n\r\n";
    EXPECT_EQ(p.feed(big), http_parser::state::too_large);
    // Terminal: further feeds cannot resurrect it.
    EXPECT_EQ(p.feed("\r\n\r\n"), http_parser::state::too_large);
}

TEST(HttpParser, QueryParamExtraction)
{
    using runtime::ops::query_param;
    EXPECT_EQ(query_param("a=1&b=2", "a"), "1");
    EXPECT_EQ(query_param("a=1&b=2", "b"), "2");
    EXPECT_EQ(query_param("a=1&b=2", "c"), "");
    EXPECT_EQ(query_param("flag&x=7", "x"), "7");
    EXPECT_EQ(query_param("flag", "flag"), "");
    EXPECT_EQ(query_param("", "a"), "");
    EXPECT_EQ(query_param("aa=9", "a"), "");  // no prefix match
}

TEST(HttpResponse, CarriesLengthAndCloses)
{
    const std::string r =
        runtime::ops::make_response(200, "text/plain", "hello", {"X-Extra: 1"});
    EXPECT_NE(r.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(r.find("Content-Length: 5\r\n"), std::string::npos);
    EXPECT_NE(r.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(r.find("X-Extra: 1\r\n"), std::string::npos);
    EXPECT_EQ(r.substr(r.size() - 5), "hello");
}

// ---------------------------------------------------------------------------
// Server integration over loopback.

std::vector<std::uint8_t> test_stream(int w = 64, int h = 64)
{
    j2k::codec_params p;
    p.tile_width = 32;
    p.tile_height = 32;
    return j2k::encode(j2k::make_test_image(w, h, 1), p);
}

struct ops_fixture {
    runtime::decode_service svc;
    runtime::ops::ops_server ops;

    explicit ops_fixture(runtime::service_config sc = make_cfg(),
                         runtime::ops::ops_config oc = {})
        : svc{std::move(sc)}, ops{svc, std::move(oc)}
    {
        ops.start();
    }

    static runtime::service_config make_cfg()
    {
        runtime::service_config sc;
        sc.workers = 2;
        sc.queue_capacity = 64;
        return sc;
    }

    [[nodiscard]] runtime::ops::http_response get(const std::string& target) const
    {
        return runtime::ops::http_get("127.0.0.1", ops.port(), target);
    }
};

// ---------------------------------------------------------------------------
// Exposition pin: the names each surface shows after a fixed mix of work.  A
// change to any list below is a deliberate rename or addition.

/// `name{key,...}` (label keys sorted) of every sample line, sorted, unique.
std::vector<std::string> sample_names(const std::string& text)
{
    std::set<std::string> names;
    std::istringstream in{text};
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#') continue;
        const auto end = line.find_first_of(" {");
        std::string name = line.substr(0, end);
        if (line[end] == '{') {
            std::vector<std::string> keys;
            for (std::size_t i = end + 1; line[i] != '}';) {
                const auto eq = line.find('=', i);
                keys.push_back(line.substr(i, eq - i));
                for (i = eq + 2; line[i] != '"'; i += line[i] == '\\' ? 2 : 1) {
                }
                i += line[i + 1] == ',' ? 2 : 1;
            }
            std::sort(keys.begin(), keys.end());
            for (std::size_t k = 0; k < keys.size(); ++k)
                name += (k == 0 ? "{" : ",") + keys[k];
            name += '}';
        }
        names.insert(std::move(name));
    }
    return {names.begin(), names.end()};
}

/// Appends every key of the compact JSON value at `s[i]` to `out` as (dotted
/// path under `at`, raw value text — empty for an object), in document order.
void json_entries(std::string_view s, std::size_t& i, const std::string& at,
                  std::vector<std::pair<std::string, std::string>>& out)
{
    auto string = [&] {
        std::string r;
        for (++i; s[i] != '"'; ++i) {
            if (s[i] == '\\') r += s[i++];
            r += s[i];
        }
        ++i;
        return r;
    };
    if (s[i] != '{') {
        const std::size_t from = i;
        if (s[i] == '"')
            (void)string();
        else
            while (i < s.size() && s[i] != ',' && s[i] != '}') ++i;
        out.back().second = s.substr(from, i - from);
        return;
    }
    for (++i; s[i] != '}';) {
        if (s[i] == ',') ++i;
        const std::string key = at + string();
        ++i;  // ':'
        out.emplace_back(key, "");
        json_entries(s, i, key + ".", out);
    }
    ++i;
}

std::vector<std::pair<std::string, std::string>> json_entries(std::string_view doc)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t i = 0;
    json_entries(doc, i, "", out);
    return out;
}

std::vector<std::string> json_keys(std::string_view doc)
{
    std::vector<std::string> out;
    for (auto& [k, v] : json_entries(doc)) out.push_back(std::move(k));
    return out;
}

/// The value after the first `"key":` in `json`, as benchmark/server_proc.cpp
/// reads the service metrics.
double first_number(const std::string& json, const std::string& key)
{
    const std::string pat = "\"" + key + "\":";
    const auto at = json.find(pat);
    return at == std::string::npos ? -1.0
                                   : std::strtod(json.c_str() + at + pat.size(), nullptr);
}

std::string first_string(const std::string& json, const std::string& key)
{
    const std::string pat = "\"" + key + "\":\"";
    const auto at = json.find(pat);
    if (at == std::string::npos) return "<absent>";
    const auto b = at + pat.size();
    return json.substr(b, json.find('"', b) - b);
}

const char* const k_pinned_samples[] = {
    "j2k_build_info{compiler,type}",
    "j2k_cache_bytes",
    "j2k_cache_collapses_total",
    "j2k_cache_entries",
    "j2k_cache_evictions_total",
    "j2k_cache_hits_total",
    "j2k_cache_mismatches_total",
    "j2k_cache_misses_total",
    "j2k_cache_pinned_bytes",
    "j2k_codec_cache_hits_total{codec}",
    "j2k_codec_cache_misses_total{codec}",
    "j2k_codec_jobs_completed_total{codec}",
    "j2k_codec_jobs_failed_total{codec}",
    "j2k_codec_jobs_unsupported_total{codec}",
    "j2k_jobs_batched_total",
    "j2k_jobs_completed_total",
    "j2k_jobs_failed_total",
    "j2k_jobs_progressive_total",
    "j2k_jobs_promoted_total",
    "j2k_jobs_rejected_total",
    "j2k_jobs_shed_total{kind,priority}",
    "j2k_jobs_submitted_total",
    "j2k_latency_us_count",
    "j2k_latency_us_max",
    "j2k_latency_us_sum",
    "j2k_latency_us{quantile}",
    "j2k_layers_emitted_total",
    "j2k_net_frames_in_total{shard}",
    "j2k_ops_accepts_failed_total",
    "j2k_ops_bad_requests_total",
    "j2k_ops_not_found_total",
    "j2k_ops_requests_total",
    "j2k_ops_scrapes_total",
    "j2k_ops_spans_consumed_total",
    "j2k_ops_trace_requests_total",
    "j2k_pool_submissions_total",
    "j2k_pool_threads",
    "j2k_priority_latency_us_count{priority}",
    "j2k_priority_latency_us{priority,quantile}",
    "j2k_process_resident_bytes",
    "j2k_process_resident_peak_bytes",
    "j2k_progressive_active_high_water",
    "j2k_progressive_cancelled_total",
    "j2k_queue_depth_high_water",
    "j2k_spans_dropped_stages_total",
    "j2k_spans_open",
    "j2k_spans_recorded_total",
    "j2k_spans_unmatched_ends_total",
    "j2k_stage_wall_seconds_total{stage}",
    "j2k_t1_segment_bytes_total",
    "j2k_tasks_stolen_total",
    "j2k_tiles_decoded_total",
    "j2k_trace_events_overwritten_total",
    "j2k_trace_events_pushed_total",
    "j2k_trace_threads",
    "j2k_tracing_armed",
    "j2k_uptime_seconds",
};

/// Present only once the ops plane has drained spans (tracer armed earlier).
const char* const k_pinned_rolling_samples[] = {
    "j2k_stage_latency_ns{quantile,stage,window}",
    "j2k_stage_rate_per_second{stage,window}",
    "j2k_stage_window_count{stage,window}",
};

const char* const k_pinned_service_keys[] = {
    "process",
    "process.uptime_s",
    "process.pool_threads",
    "process.tracing_armed",
    "process.resident_bytes",
    "process.resident_peak_bytes",
    "process.build_type",
    "process.compiler",
    "jobs_submitted",
    "jobs_completed",
    "jobs_failed",
    "jobs_rejected",
    "jobs_promoted",
    "jobs_batched",
    "shed_interactive",
    "shed_interactive.rejected",
    "shed_batch",
    "shed_batch.rejected",
    "queue_depth_high_water",
    "jobs_progressive",
    "layers_emitted",
    "progressive_cancelled",
    "t1_segment_bytes",
    "progressive_active_high_water",
    "cache",
    "cache.hits",
    "cache.misses",
    "cache.collapses",
    "cache.mismatches",
    "cache.evictions",
    "cache.bytes",
    "cache.pinned_bytes",
    "cache.entries",
    "tiles_decoded",
    "tasks_stolen",
    "pool_submissions",
    "entropy_ms",
    "iq_ms",
    "idwt_ms",
    "finish_ms",
    "latency_count",
    "latency_mean_us",
    "latency_p50_us",
    "latency_p95_us",
    "latency_p99_us",
    "latency_max_us",
    "latency_interactive",
    "latency_interactive.count",
    "latency_interactive.p50_us",
    "latency_interactive.p99_us",
    "latency_batch",
    "latency_batch.count",
    "latency_batch.p50_us",
    "latency_batch.p99_us",
    "by_codec",
    "by_codec.99",
    "by_codec.99.completed",
    "by_codec.99.failed",
    "by_codec.99.unsupported",
    "by_codec.99.cache_hits",
    "by_codec.99.cache_misses",
    "by_codec.ccsds123",
    "by_codec.ccsds123.completed",
    "by_codec.ccsds123.failed",
    "by_codec.ccsds123.unsupported",
    "by_codec.ccsds123.cache_hits",
    "by_codec.ccsds123.cache_misses",
    "by_codec.j2k",
    "by_codec.j2k.completed",
    "by_codec.j2k.failed",
    "by_codec.j2k.unsupported",
    "by_codec.j2k.cache_hits",
    "by_codec.j2k.cache_misses",
};

const char* const k_pinned_ops_keys[] = {
    "stages",
    "spans",
    "spans.recorded",
    "spans.unmatched_ends",
    "spans.dropped_stages",
    "spans.open",
    "spans.consumed_events",
    "tracer",
    "tracer.threads",
    "tracer.pushed",
    "tracer.overwritten",
    "extra",
    "extra.net_frames_in_total{shard=\\\"0\\\"}",
    "ops",
    "ops.requests",
    "ops.accepts_failed",
    "ops.bad_requests",
    "ops.not_found",
    "ops.scrapes",
    "ops.trace_requests",
};

// Must stay the first test here to arm nothing after a test that armed the
// tracer; it arms none itself, so its lists hold under OBS_TRACING=OFF too.
TEST(OpsServer, ExpositionIsPinned)
{
    runtime::service_config sc;
    sc.workers = 1;  // no stealing, and the queue holds one job at a time
    sc.queue_capacity = 64;
    sc.cache_bytes = 8u << 20;
    runtime::decode_service svc{sc};
    runtime::ops::ops_server ops{svc};
    ops.set_extra_counters([] {
        return std::vector<runtime::ops::ops_server::extra_sample>{
            {"net_frames_in_total", 7, obs::metric_type::counter, {{"shard", "0"}}}};
    });
    const auto cs = test_stream();
    (void)submit(svc, cs).get();  // j2k, a cache miss
    (void)submit(svc, cs).get();  // the same stream again: a hit
    const codec::image cube = codec::make_test_image(16, 12, 3, 16, 5);
    const auto ccs = ccsds::encode(cube);
    runtime::decode_options opt;
    opt.codec = ccsds::k_codec_wire_id;
    EXPECT_EQ(submit(svc, ccs, opt).get()->unpack(), cube);
    opt.codec = 99;
    EXPECT_THROW((void)submit(svc, ccs, opt).get(), runtime::unsupported_codec);

    const std::string text = ops.metrics_text();
    std::vector<std::string> want{std::begin(k_pinned_samples),
                                  std::end(k_pinned_samples)};
    if (!ops.stages().stages().empty())
        want.insert(want.end(), std::begin(k_pinned_rolling_samples),
                    std::end(k_pinned_rolling_samples));
    std::sort(want.begin(), want.end());
    const auto got = sample_names(text);
    EXPECT_EQ(got, want);

    const std::string json = svc.metrics().to_json();
    const auto keys = json_keys(json);
    EXPECT_EQ(keys, (std::vector<std::string>{std::begin(k_pinned_service_keys),
                                               std::end(k_pinned_service_keys)}));
    // Outside "service", whose tree is the one above.
    std::vector<std::string> ops_keys;
    for (auto& k : json_keys(ops.metrics_json()))
        if (k.rfind("service", 0) != 0 && k.rfind("stages.", 0) != 0)
            ops_keys.push_back(k);
    EXPECT_EQ(ops_keys, (std::vector<std::string>{std::begin(k_pinned_ops_keys),
                                                   std::end(k_pinned_ops_keys)}));

    EXPECT_EQ(first_number(json, "jobs_submitted"), 4);
    EXPECT_EQ(first_number(json, "jobs_rejected"), 0);
    EXPECT_EQ(first_number(json, "pool_submissions"), 4);
    EXPECT_EQ(first_number(json, "tasks_stolen"), 0);
    EXPECT_EQ(first_number(json, "queue_depth_high_water"), 1);
    EXPECT_EQ(first_number(json, "hits"), 1);
    EXPECT_EQ(first_number(json, "misses"), 2);
    EXPECT_EQ(first_number(json, "evictions"), 0);
    EXPECT_EQ(first_string(json, "build_type"), runtime::build_type());
    EXPECT_EQ(first_string(json, "compiler"), runtime::compiler_version());
    // Read from /proc/self/status as the snapshot is taken (0 without it).
    if (runtime::read_process_memory().resident_bytes > 0) {
        EXPECT_GT(first_number(json, "resident_bytes"), 0);
        EXPECT_GE(first_number(json, "resident_peak_bytes"),
                  first_number(json, "resident_bytes"));
    }
}

// ---------------------------------------------------------------------------
// Parity: every metric shows one value on every surface.

/// Sample (name and label block as rendered) → value text.
std::map<std::string, std::string> prometheus_samples(const std::string& text)
{
    std::map<std::string, std::string> out;
    std::istringstream in{text};
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#') continue;
        const auto sp = line.rfind(' ');
        out[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return out;
}

/// Dotted path → value text of every `key=value` in a dump.
std::map<std::string, std::string> dump_entries(const std::string& dump)
{
    std::map<std::string, std::string> out;
    std::istringstream in{dump};
    for (std::string line; std::getline(in, line);) {
        std::string group;
        std::size_t i = 0;
        const auto colon = line.find(": ");
        if (colon != std::string::npos && colon < line.find('=')) {
            group = line.substr(0, colon) + ".";
            i = colon + 2;
        }
        while (i < line.size()) {
            const auto eq = line.find('=', i);
            std::size_t end = eq + 1;
            if (line[end] == '"') {
                for (++end; line[end] != '"'; end += line[end] == '\\' ? 2 : 1) {
                }
                ++end;
            } else {
                end = std::min(line.find(' ', end), line.size());
            }
            out[group + line.substr(i, eq - i)] = line.substr(eq + 1, end - eq - 1);
            i = end + 1;
        }
    }
    return out;
}

double number(const std::string& v)
{
    return v == "true" ? 1.0 : std::strtod(v.c_str(), nullptr);
}

TEST(MetricsSnapshot, EveryMetricShowsOneValueInPrometheusJsonAndDump)
{
    // Distinct non-zero values in every field, so no field can stand in for
    // another by accident.
    runtime::metrics_snapshot s;
    std::vector<double> assigned;
    std::uint64_t next = 1000;
    const auto n = [&](std::uint64_t& f) { assigned.push_back(f = next += 7); };
    const auto x = [&](double& f) { assigned.push_back(f = (next += 7) + 0.5); };
    s.pool_threads = 3;
    s.tracing_armed = true;
    s.build = "Rel";
    s.compiler = "cc 1.0";
    for (std::uint64_t* f :
         {&s.resident_bytes, &s.resident_peak_bytes, &s.jobs_submitted,
          &s.jobs_completed, &s.jobs_failed, &s.jobs_rejected, &s.jobs_batched,
          &s.jobs_promoted, &s.queue_depth_high_water, &s.jobs_progressive,
          &s.layers_emitted, &s.progressive_cancelled, &s.t1_segment_bytes,
          &s.progressive_active_high_water, &s.cache_hits, &s.cache_misses, &s.cache_collapses, &s.cache_mismatches, &s.cache_evictions,
          &s.cache_bytes, &s.cache_pinned_bytes, &s.cache_entries, &s.tiles_decoded,
          &s.tasks_stolen, &s.pool_submissions, &s.latency_count, &s.latency_max_us})
        n(*f);
    for (double* f : {&s.uptime_s, &s.entropy_ms, &s.iq_ms, &s.idwt_ms, &s.finish_ms,
                      &s.latency_mean_us, &s.latency_p50_us, &s.latency_p95_us,
                      &s.latency_p99_us})
        x(*f);
    for (auto& p : s.shed_by_priority) n(p.rejected);
    for (auto& p : s.latency_by_priority) {
        n(p.count);
        x(p.p50_us);
        x(p.p99_us);
    }
    s.by_codec.resize(2);
    s.by_codec[0].name = "ccsds123";
    s.by_codec[1].name = "j2k";
    for (auto& c : s.by_codec)
        for (std::uint64_t* f :
             {&c.completed, &c.failed, &c.unsupported, &c.cache_hits, &c.cache_misses})
            n(*f);

    obs::prometheus_text text{"j2k"};
    s.for_each(text);
    const auto prom = prometheus_samples(text.str());
    std::map<std::string, std::string> json;
    for (const auto& [path, v] : json_entries(s.to_json()))
        if (!v.empty()) json[path] = v;

    // The dump shows exactly the JSON's values, spelled the same way.
    EXPECT_EQ(dump_entries(s.dump()), json);

    // Every field shows up exactly once.
    for (const double v : assigned)
        EXPECT_EQ(std::count_if(json.begin(), json.end(),
                                [v](const auto& e) { return number(e.second) == v; }),
                  1)
            << v;

    // Each JSON value: the field it must show and the Prometheus sample that
    // must show the same value (stage times in seconds there).
    struct row {
        std::string sample;
        double value;
    };
    const std::string shed = "j2k_jobs_shed_total{priority=\"";
    const auto& shed_i = s.shed_by_priority[0];
    const auto& shed_b = s.shed_by_priority[1];
    const std::string prio = "j2k_priority_latency_us";
    const auto& li = s.latency_by_priority[0];
    const auto& lb = s.latency_by_priority[1];
    std::map<std::string, row> want = {
        {"process.uptime_s", {"j2k_uptime_seconds", s.uptime_s}},
        {"process.pool_threads", {"j2k_pool_threads", 3.0}},
        {"process.tracing_armed", {"j2k_tracing_armed", 1.0}},
        {"process.resident_bytes",
         {"j2k_process_resident_bytes", 1.0 * s.resident_bytes}},
        {"process.resident_peak_bytes",
         {"j2k_process_resident_peak_bytes", 1.0 * s.resident_peak_bytes}},
        {"jobs_submitted", {"j2k_jobs_submitted_total", 1.0 * s.jobs_submitted}},
        {"jobs_completed", {"j2k_jobs_completed_total", 1.0 * s.jobs_completed}},
        {"jobs_failed", {"j2k_jobs_failed_total", 1.0 * s.jobs_failed}},
        {"jobs_rejected", {"j2k_jobs_rejected_total", 1.0 * s.jobs_rejected}},
        {"jobs_promoted", {"j2k_jobs_promoted_total", 1.0 * s.jobs_promoted}},
        {"jobs_batched", {"j2k_jobs_batched_total", 1.0 * s.jobs_batched}},
        {"shed_interactive.rejected",
         {shed + "interactive\",kind=\"rejected\"}", 1.0 * shed_i.rejected}},
        {"shed_batch.rejected",
         {shed + "batch\",kind=\"rejected\"}", 1.0 * shed_b.rejected}},
        {"queue_depth_high_water",
         {"j2k_queue_depth_high_water", 1.0 * s.queue_depth_high_water}},
        {"jobs_progressive", {"j2k_jobs_progressive_total", 1.0 * s.jobs_progressive}},
        {"layers_emitted", {"j2k_layers_emitted_total", 1.0 * s.layers_emitted}},
        {"progressive_cancelled",
         {"j2k_progressive_cancelled_total", 1.0 * s.progressive_cancelled}},
        {"t1_segment_bytes", {"j2k_t1_segment_bytes_total", 1.0 * s.t1_segment_bytes}},
        {"progressive_active_high_water",
         {"j2k_progressive_active_high_water", 1.0 * s.progressive_active_high_water}},
        {"cache.hits", {"j2k_cache_hits_total", 1.0 * s.cache_hits}},
        {"cache.misses", {"j2k_cache_misses_total", 1.0 * s.cache_misses}},
        {"cache.collapses", {"j2k_cache_collapses_total", 1.0 * s.cache_collapses}},
        {"cache.mismatches", {"j2k_cache_mismatches_total", 1.0 * s.cache_mismatches}},
        {"cache.evictions", {"j2k_cache_evictions_total", 1.0 * s.cache_evictions}},
        {"cache.bytes", {"j2k_cache_bytes", 1.0 * s.cache_bytes}},
        {"cache.pinned_bytes", {"j2k_cache_pinned_bytes", 1.0 * s.cache_pinned_bytes}},
        {"cache.entries", {"j2k_cache_entries", 1.0 * s.cache_entries}},
        {"tiles_decoded", {"j2k_tiles_decoded_total", 1.0 * s.tiles_decoded}},
        {"tasks_stolen", {"j2k_tasks_stolen_total", 1.0 * s.tasks_stolen}},
        {"pool_submissions", {"j2k_pool_submissions_total", 1.0 * s.pool_submissions}},
        {"entropy_ms", {"j2k_stage_wall_seconds_total{stage=\"entropy\"}", s.entropy_ms}},
        {"iq_ms", {"j2k_stage_wall_seconds_total{stage=\"iq\"}", s.iq_ms}},
        {"idwt_ms", {"j2k_stage_wall_seconds_total{stage=\"idwt\"}", s.idwt_ms}},
        {"finish_ms", {"j2k_stage_wall_seconds_total{stage=\"finish\"}", s.finish_ms}},
        {"latency_count", {"j2k_latency_us_count", 1.0 * s.latency_count}},
        {"latency_mean_us", {"", s.latency_mean_us}},
        {"latency_p50_us", {"j2k_latency_us{quantile=\"0.5\"}", s.latency_p50_us}},
        {"latency_p95_us", {"j2k_latency_us{quantile=\"0.95\"}", s.latency_p95_us}},
        {"latency_p99_us", {"j2k_latency_us{quantile=\"0.99\"}", s.latency_p99_us}},
        {"latency_max_us", {"j2k_latency_us_max", 1.0 * s.latency_max_us}},
        {"latency_interactive.count",
         {prio + "_count{priority=\"interactive\"}", 1.0 * li.count}},
        {"latency_interactive.p50_us",
         {prio + "{priority=\"interactive\",quantile=\"0.5\"}", li.p50_us}},
        {"latency_interactive.p99_us",
         {prio + "{priority=\"interactive\",quantile=\"0.99\"}", li.p99_us}},
        {"latency_batch.count", {prio + "_count{priority=\"batch\"}", 1.0 * lb.count}},
        {"latency_batch.p50_us",
         {prio + "{priority=\"batch\",quantile=\"0.5\"}", lb.p50_us}},
        {"latency_batch.p99_us",
         {prio + "{priority=\"batch\",quantile=\"0.99\"}", lb.p99_us}},
    };
    for (const auto& c : s.by_codec) {
        const std::string at = "by_codec." + c.name + ".";
        const std::string label = "{codec=\"" + c.name + "\"}";
        const auto put = [&](const char* key, const char* family, std::uint64_t v) {
            want[at + key] = {family + label, 1.0 * v};
        };
        put("completed", "j2k_codec_jobs_completed_total", c.completed);
        put("failed", "j2k_codec_jobs_failed_total", c.failed);
        put("unsupported", "j2k_codec_jobs_unsupported_total", c.unsupported);
        put("cache_hits", "j2k_codec_cache_hits_total", c.cache_hits);
        put("cache_misses", "j2k_codec_cache_misses_total", c.cache_misses);
    }
    // Text values are JSON and dump only; Prometheus carries them as labels.
    EXPECT_EQ(json["process.build_type"], "\"Rel\"");
    EXPECT_EQ(json["process.compiler"], "\"cc 1.0\"");
    EXPECT_EQ(prom.at("j2k_build_info{type=\"Rel\",compiler=\"cc 1.0\"}"), "1");
    EXPECT_EQ(json.size(), want.size() + 2);  // the table covers every JSON value

    std::size_t paired = 0;
    for (const auto& [path, w] : want) {
        ASSERT_TRUE(json.count(path)) << path;
        EXPECT_EQ(number(json[path]), w.value) << path;
        if (w.sample.empty()) continue;
        ++paired;
        ASSERT_TRUE(prom.count(w.sample)) << w.sample;
        const double scale = path.ends_with("_ms") ? 1e-3 : 1.0;  // ms → seconds
        EXPECT_NEAR(number(prom.at(w.sample)), w.value * scale, 1e-9 * w.value) << path;
    }
    // The Prometheus-only samples: the build info gauge and the summary sum.
    EXPECT_NEAR(number(prom.at("j2k_latency_us_sum")),
                s.latency_mean_us * static_cast<double>(s.latency_count), 0.05);
    EXPECT_EQ(prom.size(), paired + 2);
}

TEST(OpsServer, HealthzAndIndexRespond)
{
    ops_fixture f;
    const auto h = f.get("/healthz");
    EXPECT_EQ(h.status, 200);
    EXPECT_EQ(h.body, "ok\n");
    EXPECT_EQ(h.headers.at("connection"), "close");

    const auto idx = f.get("/");
    EXPECT_EQ(idx.status, 200);
    EXPECT_NE(idx.headers.at("content-type").find("text/html"), std::string::npos);
    EXPECT_NE(idx.body.find("/metrics"), std::string::npos);
}

TEST(OpsServer, UnknownPathIs404AndNonGetIs405)
{
    ops_fixture f;
    EXPECT_EQ(f.get("/nope").status, 404);
    EXPECT_EQ(f.get("/metricsx").status, 404);

    // Raw POST through a plain socket (the client helper only speaks GET).
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(f.ops.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    const char req[] = "POST /metrics HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof req - 1, 0), 0);
    std::string resp;
    char buf[512];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
        resp.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    EXPECT_NE(resp.find("HTTP/1.1 405"), std::string::npos);

    const auto st = f.ops.stats();
    EXPECT_GE(st.not_found, 2u);
}

TEST(OpsServer, GarbageAndOversizedRequestsGet4xx)
{
    runtime::ops::ops_config oc;
    oc.max_request_bytes = 256;
    ops_fixture f{ops_fixture::make_cfg(), oc};

    auto raw = [&](const std::string& bytes) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(f.ops.port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
        EXPECT_GT(::send(fd, bytes.data(), bytes.size(), 0), 0);
        std::string resp;
        char buf[512];
        for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
            resp.append(buf, static_cast<std::size_t>(n));
        ::close(fd);
        return resp;
    };

    EXPECT_NE(raw("complete garbage\r\n\r\n").find("HTTP/1.1 400"), std::string::npos);
    EXPECT_NE(raw("GET /" + std::string(1024, 'a') + " HTTP/1.1\r\n\r\n")
                  .find("HTTP/1.1 431"),
              std::string::npos);
    const auto st = f.ops.stats();
    EXPECT_GE(st.bad_requests, 2u);
}

/// Every sample's family has exactly one `# TYPE` line, ahead of its first
/// sample (a summary's `_sum` / `_count` belong to the summary).
void expect_one_type_line_per_family(const std::string& text)
{
    std::map<std::string, std::string> types;
    std::istringstream in{text};
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream t{line.substr(7)};
            std::string family, type;
            t >> family >> type;
            EXPECT_TRUE(types.emplace(family, type).second) << "second " << line;
            continue;
        }
        if (line.empty() || line[0] == '#') continue;
        std::string family = line.substr(0, line.find_first_of(" {"));
        for (const std::string sfx : {"_sum", "_count"}) {
            const std::string base = family.substr(0, family.size() - sfx.size());
            if (family.ends_with(sfx) && !types.count(family) && types.count(base) &&
                types[base] == "summary")
                family = base;
        }
        EXPECT_TRUE(types.count(family)) << "no # TYPE ahead of " << line;
    }
}

TEST(OpsServer, MetricsExposesPrometheusTextAndJson)
{
    ops_fixture f;
    // Run a little work through the service so counters move.
    const auto cs = test_stream();
    for (int i = 0; i < 3; ++i) (void)submit(f.svc, cs).get();

    const auto text = f.get("/metrics");
    EXPECT_EQ(text.status, 200);
    EXPECT_NE(text.headers.at("content-type").find("text/plain"), std::string::npos);
    EXPECT_NE(text.body.find("j2k_jobs_submitted_total 3"), std::string::npos);
    EXPECT_NE(text.body.find("j2k_build_info{type="), std::string::npos);
    EXPECT_NE(text.body.find("j2k_uptime_seconds "), std::string::npos);
    EXPECT_NE(text.body.find("j2k_pool_threads 2"), std::string::npos);
    EXPECT_NE(text.body.find("j2k_cache_hits_total "), std::string::npos);
    EXPECT_NE(text.body.find("j2k_latency_us{quantile=\"0.99\"} "), std::string::npos);
    EXPECT_NE(text.body.find(
                  "j2k_jobs_shed_total{priority=\"interactive\",kind=\"rejected\"} "),
              std::string::npos);
    // Every non-comment line is `name{labels}? value`: name charset is the
    // Prometheus identifier alphabet (hygiene holds at the boundary).
    std::size_t pos = 0;
    while (pos < text.body.size()) {
        auto eol = text.body.find('\n', pos);
        if (eol == std::string::npos) eol = text.body.size();
        const std::string line = text.body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#') continue;
        const auto name_end = line.find_first_of(" {");
        ASSERT_NE(name_end, std::string::npos) << line;
        for (const char c : line.substr(0, name_end))
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                        c == ':')
                << line;
        EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    expect_one_type_line_per_family(text.body);

    const auto json = f.get("/metrics?format=json");
    EXPECT_EQ(json.status, 200);
    EXPECT_NE(json.headers.at("content-type").find("application/json"),
              std::string::npos);
    EXPECT_NE(json.body.find("\"service\":{\"process\":{\"uptime_s\":"),
              std::string::npos);
    EXPECT_NE(json.body.find("\"jobs_submitted\":3"), std::string::npos);
    EXPECT_NE(json.body.find("\"stages\":{"), std::string::npos);
    EXPECT_NE(json.body.find("\"ops\":{"), std::string::npos);
}

TEST(OpsServer, PerCodecFamiliesCarryTheCodecLabel)
{
    ops_fixture f;
    // One job per codec, plus one aimed at an id nothing registered — the
    // split must expose completed work under each backend's name and the
    // unknown id under its decimal spelling.
    (void)submit(f.svc, test_stream()).get();
    const codec::image cube = codec::make_test_image(16, 12, 3, 16, 5);
    const auto ccs = ccsds::encode(cube);
    runtime::decode_options opt;
    opt.codec = ccsds::k_codec_wire_id;
    EXPECT_EQ(submit(f.svc, ccs, opt).get()->unpack(), cube);
    opt.codec = 99;
    EXPECT_THROW((void)submit(f.svc, ccs, opt).get(), runtime::unsupported_codec);

    const std::string text = f.get("/metrics").body;
    EXPECT_NE(text.find("j2k_codec_jobs_completed_total{codec=\"j2k\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("j2k_codec_jobs_completed_total{codec=\"ccsds123\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("j2k_codec_jobs_unsupported_total{codec=\"99\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("j2k_codec_jobs_failed_total{codec=\"ccsds123\"} 0"),
              std::string::npos);
    // The per-codec cache split is present (zeroes here: no cache configured).
    EXPECT_NE(text.find("j2k_codec_cache_hits_total{codec=\"ccsds123\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("j2k_codec_cache_misses_total{codec=\"j2k\"} 0"),
              std::string::npos);

    // The JSON document carries the same split.
    const std::string json = f.get("/metrics?format=json").body;
    EXPECT_NE(json.find("\"ccsds123\""), std::string::npos);
}

TEST(OpsServer, RollingStageWindowsGoLiveUnderTracedLoad)
{
    if (!obs::tracing_compiled()) GTEST_SKIP() << "built with OBS_TRACING=OFF";
    obs::tracer::instance().set_enabled(true);
    runtime::ops::ops_config oc;
    oc.aggregate_interval_ms = 20;
    ops_fixture f{ops_fixture::make_cfg(), oc};
    const auto cs = test_stream(128, 128);
    for (int i = 0; i < 4; ++i) (void)submit(f.svc, cs).get();
    obs::tracer::instance().set_enabled(false);

    const auto text = f.get("/metrics");
    // The decode stages show up with live windowed quantiles.
    EXPECT_NE(text.body.find("j2k_stage_latency_ns{stage=\"tier1\""),
              std::string::npos)
        << text.body;
    EXPECT_NE(text.body.find("quantile=\"0.99\"}"), std::string::npos);
    const auto w =
        f.ops.stages().window("tier1", obs::rolling_stats::k_max_window_s);
    EXPECT_GT(w.count, 0u);
    EXPECT_GT(w.p99_ns, 0.0);
    EXPECT_GE(f.ops.stats().spans_consumed, 1u);
}

// The TSan leg: scrapes race decode submissions, span drains, and each other.
TEST(OpsServer, ConcurrentScrapesUnderLoadAreClean)
{
    obs::tracer::instance().set_enabled(obs::tracing_compiled());
    runtime::ops::ops_config oc;
    oc.aggregate_interval_ms = 5;
    ops_fixture f{ops_fixture::make_cfg(), oc};
    const auto cs = test_stream();
    std::atomic<bool> stop{false};
    std::thread load{[&] {
        while (!stop.load(std::memory_order_acquire)) (void)submit(f.svc, cs).get();
    }};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 3; ++t)
        scrapers.emplace_back([&f, t] {
            for (int i = 0; i < 15; ++i) {
                const auto r = f.get(t % 2 ? "/metrics?format=json" : "/metrics");
                EXPECT_EQ(r.status, 200);
                EXPECT_FALSE(r.body.empty());
            }
        });
    for (auto& t : scrapers) t.join();
    stop.store(true, std::memory_order_release);
    load.join();
    obs::tracer::instance().set_enabled(false);
    EXPECT_GE(f.ops.stats().scrapes, 45u);
}

TEST(OpsServer, ReadyzFlipsWhenTheServiceDrains)
{
    ops_fixture f;
    EXPECT_EQ(f.get("/readyz").status, 200);
    EXPECT_EQ(f.get("/readyz").body, "ready\n");

    // Submit slow work, then shut down from another thread: readiness must
    // flip to 503 while the drain is still in progress (and stay flipped).
    const auto heavy = test_stream(256, 256);
    for (int i = 0; i < 6; ++i)
        f.svc.submit_async(std::vector<std::uint8_t>{heavy}, {},
                           [](std::shared_ptr<const runtime::raw_image>,
                              std::exception_ptr) {});
    std::thread closer{[&f] { f.svc.shutdown(); }};
    // Poll until the flip is visible; shutdown() blocks until the queue
    // drains, so some of these scrapes overlap the drain window.
    int st = 0;
    for (int i = 0; i < 200 && st != 503; ++i) st = f.get("/readyz").status;
    closer.join();
    EXPECT_EQ(st, 503);
    EXPECT_EQ(f.get("/readyz").body, "draining\n");
    EXPECT_EQ(f.get("/healthz").status, 200);  // liveness is unaffected
}

TEST(OpsServer, CustomReadyProbeWins)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    runtime::ops::ops_server ops{svc};
    std::atomic<bool> ready{false};
    ops.set_ready_probe([&ready] { return ready.load(); });
    ops.start();
    const auto get = [&](const char* t) {
        return runtime::ops::http_get("127.0.0.1", ops.port(), t);
    };
    EXPECT_EQ(get("/readyz").status, 503);
    ready.store(true);
    EXPECT_EQ(get("/readyz").status, 200);
    ops.stop();
}

TEST(OpsServer, ExtraCountersAreSanitisedIntoTheExposition)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    runtime::ops::ops_server ops{svc};
    ops.set_extra_counters([] {
        return std::vector<runtime::ops::ops_server::extra_sample>{
            {"net_frames_in_total", 12},
            {"weird name!", 3},  // must be sanitised at the boundary
            {"quote\"inject\":9999,\"x", 2},
            {"line\nbreak\\", 1},
        };
    });
    ops.start();
    const auto r = runtime::ops::http_get("127.0.0.1", ops.port(), "/metrics");
    EXPECT_NE(r.body.find("j2k_net_frames_in_total 12"), std::string::npos);
    EXPECT_NE(r.body.find("j2k_weird_name_ 3"), std::string::npos);
    EXPECT_EQ(r.body.find("weird name!"), std::string::npos);
    expect_one_type_line_per_family(r.body);
    const auto j = runtime::ops::http_get("127.0.0.1", ops.port(),
                                          "/metrics?format=json");
    EXPECT_NE(j.body.find("\"weird name!\":3"), std::string::npos);  // JSON keeps it
    // Hostile names stay single escaped keys: nothing is injected into the
    // document and no raw control character survives.
    const auto keys = json_keys(j.body);
    const auto is_extra = [](const std::string& k) { return k.rfind("extra.", 0) == 0; };
    EXPECT_EQ(std::count_if(keys.begin(), keys.end(), is_extra), 4);
    EXPECT_NE(std::find(keys.begin(), keys.end(), "extra.quote\\\"inject\\\":9999,\\\"x"),
              keys.end());
    EXPECT_NE(j.body.find("\"line\\u000abreak\\\\\":1"), std::string::npos);
    for (const char c : j.body) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    ops.stop();
}

TEST(OpsServer, TraceTailReturnsDisjointConcatenableBatches)
{
    if (!obs::tracing_compiled()) GTEST_SKIP() << "built with OBS_TRACING=OFF";
    ops_fixture f;
    auto& tr = obs::tracer::instance();
    tr.set_enabled(true);
    const auto cs = test_stream();
    (void)submit(f.svc, cs).get();

    const auto c1 = f.get("/trace?since_ns=0");
    ASSERT_EQ(c1.status, 200);
    ASSERT_TRUE(c1.headers.count("x-trace-next-since-ns"));
    const std::string cursor = c1.headers.at("x-trace-next-since-ns");
    EXPECT_GT(std::strtoull(cursor.c_str(), nullptr, 10), 0u);
    EXPECT_EQ(c1.body.substr(0, 2), "[\n");  // first chunk opens the array

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)submit(f.svc, cs).get();
    const auto c2 = f.get("/trace?since_ns=" + cursor);
    tr.set_enabled(false);
    ASSERT_EQ(c2.status, 200);
    EXPECT_NE(c2.body.substr(0, 2), "[\n");  // later chunks are bare elements

    // Disjoint: every "ts" in chunk 2 is at or after the cursor.  (Chunk
    // timestamps are microseconds; the cursor is nanoseconds.)
    const double cursor_us = std::strtod(cursor.c_str(), nullptr) / 1000.0;
    std::size_t pos = 0;
    std::size_t checked = 0;
    while ((pos = c2.body.find("\"ts\":", pos)) != std::string::npos) {
        pos += 5;
        const double ts_us = std::strtod(c2.body.c_str() + pos, nullptr);
        EXPECT_GE(ts_us, cursor_us - 0.0015);  // one-ns rounding slack
        ++checked;
    }
    EXPECT_GT(checked, 0u);

    // Concatenated chunks + closing bracket form one parseable document —
    // the in-test validation that Perfetto's tolerant loader will accept it.
    std::string concat = c1.body + c2.body;
    const auto comma = concat.find_last_of(',');
    ASSERT_NE(comma, std::string::npos);
    concat = concat.substr(0, comma) + "\n]";
    // Light structural validation: balanced brackets outside strings.
    long depth = 0;
    bool in_str = false, esc = false;
    for (const char ch : concat) {
        if (esc) { esc = false; continue; }
        if (in_str) {
            if (ch == '\\') esc = true;
            else if (ch == '"') in_str = false;
            continue;
        }
        if (ch == '"') in_str = true;
        else if (ch == '[' || ch == '{') ++depth;
        else if (ch == ']' || ch == '}') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_str);
}

TEST(OpsServer, FullTraceDocumentIsStrictJson)
{
    ops_fixture f;
    const auto r = f.get("/trace");
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(r.body.front(), '{');
    EXPECT_EQ(r.body.back(), '\n');
    EXPECT_EQ(f.get("/trace?since_ns=bogus").status, 400);
}

TEST(OpsServer, MetricsTextRenderableWithoutSockets)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    runtime::ops::ops_server ops{svc};  // never started: render directly
    const std::string text = ops.metrics_text();
    EXPECT_NE(text.find("j2k_jobs_submitted_total 0"), std::string::npos);
    const std::string json = ops.metrics_json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(OpsServer, LabeledExtraCountersExposeCleanlyAndMalformedOnesAreSanitised)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    runtime::ops::ops_server ops{svc};  // render directly, no socket needed
    ops.set_extra_counters([] {
        using enum obs::metric_type;
        return std::vector<runtime::ops::ops_server::extra_sample>{
            {"net_frames_in_total", 12},
            {"net_frames_in_total", 7, counter, {{"shard", "0"}}},
            {"net_frames_in_total", 5, counter, {{"shard", "1"}, {"zone", "a"}}},
            {"net_connections_open", 4, gauge},
            // A malformed label key is sanitised and a hostile value escaped,
            // never reaching exposition raw.
            {"weird metric", 3, counter, {{"bad key", "q\"v\\\n"}}},
        };
    });
    const std::string text = ops.metrics_text();
    EXPECT_NE(text.find("# TYPE j2k_net_frames_in_total counter\n"
                        "j2k_net_frames_in_total 12\n"
                        "j2k_net_frames_in_total{shard=\"0\"} 7\n"
                        "j2k_net_frames_in_total{shard=\"1\",zone=\"a\"} 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE j2k_net_connections_open gauge\n"
                        "j2k_net_connections_open 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("j2k_weird_metric{bad_key=\"q\\\"v\\\\\\n\"} 3\n"),
              std::string::npos);
    EXPECT_EQ(text.find("weird metric"), std::string::npos);
    EXPECT_EQ(text.find("bad key"), std::string::npos);
    expect_one_type_line_per_family(text);
    // The JSON key is the family as given plus the rendered label block.
    EXPECT_NE(ops.metrics_json().find(
                  "\"net_frames_in_total{shard=\\\"1\\\",zone=\\\"a\\\"}\":5"),
              std::string::npos);
}

TEST(OpsServer, FdExhaustionShedsConnectionsAndCountsAcceptsFailed)
{
    ops_fixture f;
    EXPECT_EQ(f.get("/healthz").status, 200);
    EXPECT_EQ(f.ops.stats().accepts_failed, 0u);
    // The server closes the finished /healthz connection on its own loop;
    // let that fd actually free before taking a census of the table.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Clamp the fd table just above current usage and fill every remaining
    // slot, then free exactly one for a client socket: the ops listener's
    // accept() hits EMFILE and must shed through its reserve fd (clean EOF)
    // rather than hot-spin on the level-triggered listener.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    {
        int maxfd = 2;
        DIR* d = ::opendir("/proc/self/fd");
        ASSERT_NE(d, nullptr);
        while (const dirent* e = ::readdir(d)) {
            const int fd = std::atoi(e->d_name);
            if (fd > maxfd) maxfd = fd;
        }
        ::closedir(d);
        rlimit lim = saved;
        lim.rlim_cur = static_cast<rlim_t>(maxfd + 8);
        ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lim), 0);
    }
    std::vector<int> fillers;
    for (;;) {
        const int fd = ::open("/dev/null", O_RDONLY);
        if (fd < 0) break;
        fillers.push_back(fd);
    }
    ASSERT_FALSE(fillers.empty());
    ::close(fillers.back());
    fillers.pop_back();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(f.ops.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    char b;
    EXPECT_EQ(::recv(fd, &b, 1, 0), 0);  // shed: accepted then closed
    ::close(fd);
    for (const int g : fillers) ::close(g);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

    EXPECT_GE(f.ops.stats().accepts_failed, 1u);
    // The plane serves normally once the pressure is gone, and the failure
    // shows up in its own exposition.
    const auto m = f.get("/metrics");
    EXPECT_EQ(m.status, 200);
    EXPECT_NE(m.body.find("j2k_ops_accepts_failed_total "), std::string::npos);
}

TEST(OpsServer, FailedStartThrowsSystemErrorAndLeavesNoFdOpen)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    const socket_probe::held_port busy{true};  // listening, no SO_REUSEPORT
    for (const bool bad_address : {true, false}) {
        SCOPED_TRACE(bad_address ? "bad address" : "port in use");
        runtime::ops::ops_config cfg;
        if (bad_address)
            cfg.bind_address = "localhost";  // numeric IPv4 only
        else
            cfg.port = busy.port;
        {
            runtime::ops::ops_server ops{svc, cfg};
            const int before = socket_probe::open_fd_count();
            EXPECT_EQ(socket_probe::system_error_code([&] { ops.start(); }),
                      bad_address ? EINVAL : EADDRINUSE);
            EXPECT_EQ(socket_probe::open_fd_count(), before);
        }
        cfg.bind_address = "127.0.0.1";
        cfg.port = 0;
        runtime::ops::ops_server ops{svc, cfg};
        ops.start();
        EXPECT_EQ(runtime::ops::http_get("127.0.0.1", ops.port(), "/healthz").status, 200);
    }
}

TEST(OpsServer, RollingWindowsStartWhenThePlaneIsBuilt)
{
    // The plane's cursor starts at construction: a span that ended before
    // it is absent from the windows, one that ends after it is present, and
    // one still open when the plane was built ends unmatched.
    auto& tr = obs::tracer::instance();
    runtime::decode_service svc{ops_fixture::make_cfg()};
    tr.begin("test", "ended_before_plane");
    tr.end("test", "ended_before_plane");
    tr.begin("test", "open_across_plane");
    runtime::ops::ops_server ops{svc};
    tr.end("test", "open_across_plane");
    tr.begin("test", "ended_after_plane");
    tr.end("test", "ended_after_plane");
    (void)ops.metrics_text();  // drains, like a scrape

    const auto stages = ops.stages().stages();
    EXPECT_EQ(std::count(stages.begin(), stages.end(), "ended_before_plane"), 0);
    EXPECT_EQ(std::count(stages.begin(), stages.end(), "open_across_plane"), 0);
    const auto w = ops.stages().window("ended_after_plane", 1);
    EXPECT_EQ(w.count, 1u);
    EXPECT_EQ(ops.stages().get_totals().unmatched_ends, 1u);
}

TEST(OpsServer, StopWakesTheLoopInsteadOfWaitingForTheTick)
{
    runtime::ops::ops_config oc;
    oc.aggregate_interval_ms = 10000;
    ops_fixture f{ops_fixture::make_cfg(), oc};
    // A served request puts the loop back in its wait, 10 s from a tick.
    ASSERT_EQ(f.get("/healthz").status, 200);
    const auto t0 = std::chrono::steady_clock::now();
    f.ops.stop();
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_LT(ms.count(), 100);
}

TEST(HttpClient, ConnectFailuresAreTyped)
{
    const socket_probe::held_port closed{false};  // bound, not listening
    const int before = socket_probe::open_fd_count();
    EXPECT_TRUE(socket_probe::throws_plain_runtime_error(
        [] { (void)runtime::ops::http_get("localhost", 9, "/healthz"); }));
    EXPECT_EQ(socket_probe::system_error_code([&] {
                  (void)runtime::ops::http_get("127.0.0.1", closed.port, "/healthz");
              }),
              ECONNREFUSED);
    EXPECT_EQ(socket_probe::open_fd_count(), before);
}

}  // namespace
