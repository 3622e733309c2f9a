// j2ne_bench — the J2NE serving benchmark.
//
//   j2ne_bench --seed N [--workload W] [--seconds S] [--trace FILE]
//   j2ne_bench --smoke [--seed N]       every workload, short phases, traced
//                                       (`run.py --smoke` checks its metrics
//                                       against BENCHMARK.json)
//   j2ne_bench --selftest [--seed N]    corrupts one expected payload byte
//                                       and asserts the run reports the
//                                       failure
//
// Per workload: generate the seeded corpus; set up a fresh j2ne_serve five
// times (spawn -> port -> warm pass, the median is `setup_s`), keep the last
// one; then five rounds of an open phase at the committed rate followed by a
// closed phase with the workload's fixed number of requests in flight.  With
// --trace, 30% of the time goes to a traced repeat of the open phase, after
// which the layers are replayed in-process and every span is written to FILE
// as Chrome trace JSON.  Every response is compared byte for byte with the
// raw encoding of a direct decode.  The last stdout line per workload is
// one JSON object with every metric by name, value and unit.
//
// Exit status is non-zero when any response failed its check, any request
// failed, or a phase was generator-bound (the generator thread's CPU share
// above 0.8), so a bad number is never reported as good.
#include "common.hpp"
#include "corpus.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "server_proc.hpp"
#include "spans.hpp"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

namespace {

using namespace bench;

constexpr int k_connections = 4;  ///< = nproc of the reference box
constexpr int k_warm_in_flight = 2;
constexpr int k_server_workers = 2;      ///< j2ne_serve's pool size
constexpr double k_open_share = 0.6;     ///< of each round, the open phase's share
constexpr double k_traced_share = 0.3;   ///< of a traced run, the traced phase's
constexpr double k_max_gen_cpu = 0.8;

struct options {
    std::uint64_t seed = 1;
    std::vector<const workload_spec*> workloads;
    double seconds = 20.0;
    std::string trace_path;
    bool smoke = false;
    bool selftest = false;
    int setups = 5;
    int rounds = 5;
};

struct report {
    std::string workload;
    std::vector<metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;
    bool correct = true;
    bool valid = true;

    void add(const char* name, double value, const char* unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/// The load generator gets one CPU of its own and the server the rest, so
/// neither steals the other's core and the generator guard measures the
/// generator alone.  With a single CPU nothing is pinned.
struct cpu_split {
    bool on = false;
    cpu_set_t all{};
    cpu_set_t gen{};
    cpu_set_t server{};
};

cpu_split split_cpus()
{
    cpu_split s;
    if (::sched_getaffinity(0, sizeof s.all, &s.all) != 0 || CPU_COUNT(&s.all) < 2)
        return s;
    int last = -1;
    for (int i = 0; i < CPU_SETSIZE; ++i)
        if (CPU_ISSET(i, &s.all)) last = i;
    CPU_ZERO(&s.gen);
    CPU_SET(last, &s.gen);
    s.server = s.all;
    CPU_CLR(last, &s.server);
    s.on = true;
    return s;
}

void pin_self(const cpu_split& cpus, const cpu_set_t& set)
{
    if (cpus.on) ::sched_setaffinity(0, sizeof set, &set);
}

std::string self_dir()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0) throw std::runtime_error{"cannot resolve /proc/self/exe"};
    std::string p{buf, static_cast<std::size_t>(n)};
    return p.substr(0, p.rfind('/'));
}

double ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<double> latencies_ms(const std::vector<phase_result>& ps, bool first_frame)
{
    std::vector<double> v;
    for (const phase_result& p : ps)
        for (const auto& r : p.reqs)
            if (r.out == outcome::ok)
                v.push_back(ms((first_frame ? r.first_frame : r.done) - r.due));
    return v;
}

/// One line per phase kind, summed over its rounds; marks the report invalid
/// when the phases were generator-bound.
void print_phases(const char* name, const std::vector<phase_result>& ps, bool open,
                  report& rep)
{
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    double gen_cpu = 0.0;
    for (const phase_result& p : ps) {
        sent += p.reqs.size();
        ok += p.count(outcome::ok);
        failed += p.failed();
        gen_cpu = std::max(gen_cpu, p.cpu_frac);
    }
    auto count = [&](outcome o) {
        std::size_t n = 0;
        for (const phase_result& p : ps) n += p.count(o);
        return n;
    };
    std::printf("  %-11s x%zu  sent %7zu  ok %7zu  failed %zu (shed %zu, mismatch %zu, "
                "status %zu, no reply %zu)  gen cpu %.2f",
                name, ps.size(), sent, ok, failed, count(outcome::shed),
                count(outcome::mismatch), count(outcome::error_status),
                count(outcome::timeout), gen_cpu);
    // Only the CPU share gates: send lag with an idle generator is the
    // host's scheduling, not a saturated generator (README, Generator guard).
    const bool valid = gen_cpu <= k_max_gen_cpu;
    if (open) std::printf("  lag p99 %.3f ms", lag_p99_ms(ps));
    std::printf("%s\n", valid ? "" : "  INVALID: generator-bound");
    rep.valid = rep.valid && valid;
    rep.mismatches += count(outcome::mismatch);
    rep.attempted += sent;
    rep.failed += failed;
}

/// Everything one workload's server run produced.
struct server_run {
    std::vector<double> setup_s;
    std::vector<phase_result> opens;
    std::vector<phase_result> closeds;
    std::vector<phase_result> traced_opens;
    std::vector<double> rps_r;  ///< per closed round
    std::vector<double> cpu_r;  ///< per closed round, server CPU ms per request
    std::string snap_before;    ///< counters before the first round
    std::string snap_after;     ///< ... and after the last
    double rss_mib = 0.0;
    std::size_t warm_failed = 0;
    std::uint64_t protocol_errors = 0;
    bool server_ok = true;      ///< every j2ne_serve exited 0
};

server_run drive_server(corpus& c, const options& o, const cpu_split& cpus,
                        spans::track& client)
{
    const workload_spec& spec = *c.spec;
    const bool traced = !o.trace_path.empty();
    server_run run;

    // Time split: `rounds` x (open, closed), so every metric samples the whole
    // run rather than one stretch of it; a traced run gives a share of its
    // time to the traced repeat of the open phase.
    const double measured_s = o.seconds * (traced ? 1.0 - k_traced_share : 1.0);
    const double open_s = measured_s * k_open_share / o.rounds;
    const double closed_s = measured_s * (1.0 - k_open_share) / o.rounds;
    const auto per_round =
        static_cast<std::size_t>(std::max(1.0, std::floor(open_s * spec.open_rps)));
    sequence open_seq{c, 1};
    std::vector<std::vector<std::uint32_t>> round_inputs;
    for (int r = 0; r < o.rounds; ++r) round_inputs.push_back(open_seq.take(per_round));
    if (o.selftest) c.inputs[round_inputs.front().front()].expect.front().back() ^= 1;

    // Set-up, several times: each is spawn -> port ready -> warm pass done.
    const std::string serve_exe = self_dir() + "/j2ne_serve";
    std::unique_ptr<server_proc> srv;
    std::unique_ptr<loadgen> lg;
    pin_self(cpus, cpus.gen);
    for (int k = 0; k < o.setups; ++k) {
        lg.reset();
        if (srv && srv->stop() != 0) run.server_ok = false;
        srv.reset();
        const std::int64_t t0 = now_ns();
        srv = std::make_unique<server_proc>(serve_exe, cpus.on ? &cpus.server : nullptr);
        lg = std::make_unique<loadgen>(c, srv->port(), k_connections);
        const phase_result warm = lg->warm(k_warm_in_flight);
        run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        run.warm_failed += warm.failed();
    }

    run.snap_before = srv->snapshot();
    sequence closed_seq{c, 2};
    for (int r = 0; r < o.rounds; ++r) {
        run.opens.push_back(
            lg->open(round_inputs[static_cast<std::size_t>(r)], spec.open_rps));
        double cpu0 = 0.0;
        double cpu1 = 0.0;
        run.closeds.push_back(lg->closed(
            closed_seq, closed_s, [&] { cpu0 = srv->cpu_s(); },
            [&] { cpu1 = srv->cpu_s(); }));
        const phase_result& cp = run.closeds.back();
        const double x = cp.closed_rps(spec.closed_in_flight);
        const double wall_s = static_cast<double>(cp.end_ns - cp.begin_ns) / 1e9;
        run.rps_r.push_back(x);
        run.cpu_r.push_back(ratio((cpu1 - cpu0) * 1e3, wall_s * x));
    }
    run.snap_after = srv->snapshot();

    if (traced) {
        const auto n = static_cast<std::size_t>(
            std::max(1.0, std::floor(o.seconds * k_traced_share * spec.open_rps)));
        client.spans.reserve(4 * n);  // no reallocation inside the phase
        run.traced_opens.push_back(
            lg->open(sequence{c, 1}.take(n), spec.open_rps, &client));
    }
    run.rss_mib = srv->vm_hwm_mib();
    run.protocol_errors = lg->protocol_errors();
    lg.reset();
    if (srv->stop() != 0) run.server_ok = false;
    pin_self(cpus, cpus.all);
    return run;
}

/// What a client sees.  BENCHMARK.json bounds setup_s and rss_peak_mib as
/// end-to-end metrics and lists the timings, which do not repeat within its
/// bounds on a noisy host, as per-layer ones.  The tail is the median of the
/// rounds' tail percentiles when every round has ten samples beyond it, so
/// one host stall spoils one round, not the metric; otherwise it is taken
/// over the pooled rounds.
void add_end_to_end(const workload_spec& spec, const server_run& run, report& rep)
{
    const std::vector<double> lat = latencies_ms(run.opens, false);
    std::vector<double> round_tails;
    for (const phase_result& p : run.opens) {
        const std::vector<double> v = latencies_ms({p}, false);
        if (static_cast<double>(v.size()) * (1.0 - spec.tail_q) < 10.0) {
            round_tails.clear();
            break;
        }
        round_tails.push_back(quantile(v, spec.tail_q));
    }
    rep.add("setup_s", median(run.setup_s), "s");
    rep.add("p50_ms", median(lat), "ms");
    rep.add("tail_ms",
            round_tails.empty() ? quantile(lat, spec.tail_q) : median(round_tails), "ms");
    rep.add("first_layer_ms", median(latencies_ms(run.opens, true)), "ms");
    rep.add("rps", median(run.rps_r), "req/s");
    rep.add("cpu_ms_per_req", median(run.cpu_r), "ms");
    rep.add("rss_peak_mib", run.rss_mib, "MiB");
    std::printf("  tail = p%g %s over %zu open-phase samples\n", spec.tail_q * 100,
                round_tails.empty() ? "pooled" : "median of rounds", lat.size());
}

/// Per-layer metrics from the load generator and the server's counters (over
/// every round, open and closed).
void add_counters(const server_run& run, report& rep)
{
    double gen_cpu = 0.0;
    for (const auto* ps : {&run.opens, &run.closeds, &run.traced_opens})
        for (const phase_result& p : *ps) gen_cpu = std::max(gen_cpu, p.cpu_frac);
    rep.add("loadgen.lag_p99_ms",
            std::max(lag_p99_ms(run.opens), lag_p99_ms(run.traced_opens)), "ms");
    rep.add("loadgen.cpu_frac", gen_cpu, "ratio");

    std::vector<double> server, xfer;
    for (const phase_result& p : run.traced_opens.empty() ? run.opens : run.traced_opens)
        for (const auto& r : p.reqs)
            if (r.out == outcome::ok) {
                server.push_back(ms(r.first_byte - r.send_done));
                xfer.push_back(ms(r.done - r.first_byte));
            }
    rep.add("net.server_ms", median(server), "ms");
    rep.add("net.xfer_ms", median(xfer), "ms");

    auto delta = [&](const char* key) {
        return json_number(run.snap_after, key) - json_number(run.snap_before, key);
    };
    const double frames = delta("frames_in");
    const double jobs = delta("jobs_submitted");
    rep.add("net.bytes_out_per_req", ratio(delta("bytes_out"), frames), "B");
    rep.add("net.batched_frac", ratio(delta("batched_jobs"), frames), "ratio");
    rep.add("service.jobs_per_pump", ratio(jobs, delta("pool_submissions")), "count");
    rep.add("service.steals_per_job", ratio(delta("tasks_stolen"), jobs), "count");
    rep.add("service.shed_frac",
            ratio(delta("jobs_rejected") + delta("jobs_dropped"), jobs), "ratio");
    rep.add("service.queue_high_water",
            json_number(run.snap_after, "queue_depth_high_water"), "count");
    rep.add("cache.hit_frac", ratio(delta("hits"), delta("hits") + delta("misses")),
            "ratio");
    rep.add("cache.evictions_per_req", ratio(delta("evictions"), jobs), "count");
}

/// The machine-readable line: every metric by name, value and unit.
void print_json(const report& rep, const options& o, const workload_spec& spec,
                const server_run& run)
{
    char head[512];
    std::snprintf(head, sizeof head,
                  "{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,\"valid\":%s,"
                  "\"attempted\":%zu,\"failed\":%zu,\"meta\":{\"nproc\":%u,"
                  "\"compiler\":\"%s\",\"build_type\":\"%s\",\"open_rps\":%g,"
                  "\"tail_q\":%g},\"metrics\":{",
                  rep.workload.c_str(), static_cast<unsigned long long>(o.seed),
                  rep.correct ? "true" : "false", rep.valid ? "true" : "false",
                  rep.attempted, rep.failed, std::thread::hardware_concurrency(),
                  json_string(run.snap_after, "compiler").c_str(),
                  json_string(run.snap_after, "build_type").c_str(), spec.open_rps,
                  spec.tail_q);
    std::string js = head;
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.12g,\"unit\":\"%s\"}",
                      i ? "," : "", rep.metrics[i].name.c_str(), rep.metrics[i].value,
                      rep.metrics[i].unit.c_str());
        js += buf;
    }
    std::printf("%s}}\n", js.c_str());
}

report run_workload(const workload_spec& spec, const options& o, const cpu_split& cpus,
                    std::vector<spans::track>& tracks)
{
    report rep;
    rep.workload = spec.name;
    const bool traced = !o.trace_path.empty();
    std::printf("== %s  seed %llu ==\n", spec.name,
                static_cast<unsigned long long>(o.seed));
    std::fflush(stdout);

    const auto threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    corpus c = make_corpus(spec, o.seed, threads);
    spans::track client{spec.name, true, {}, {}};
    const server_run run = drive_server(c, o, cpus, client);

    for (std::size_t r = 0; r < run.opens.size(); ++r)
        std::printf("  round %zu: open p50 %.4f ms  closed %.2f req/s  %.4f cpu ms/req\n",
                    r + 1, median(latencies_ms({run.opens[r]}, false)), run.rps_r[r],
                    run.cpu_r[r]);
    print_phases("open", run.opens, true, rep);
    print_phases("closed", run.closeds, false, rep);
    if (traced) print_phases("open_traced", run.traced_opens, true, rep);
    if (run.warm_failed) std::printf("  warm pass: %zu failed\n", run.warm_failed);
    if (run.protocol_errors)
        std::printf("  protocol errors: %llu\n",
                    static_cast<unsigned long long>(run.protocol_errors));
    rep.correct = rep.failed == 0 && run.warm_failed == 0 && run.protocol_errors == 0 &&
                  run.server_ok;

    add_end_to_end(spec, run, rep);
    add_counters(run, rep);
    if (traced) {
        spans::track tr{spec.name, false, {}, {}};
        const int n = o.smoke ? std::min(spec.replay_n, 16) : spec.replay_n;
        const replay_result rr = run_replay(
            c, sequence{c, 1}.take(static_cast<std::size_t>(n)), tr, k_server_workers);
        for (const metric& m : rr.metrics) rep.metrics.push_back(m);
        const double p50 = median(latencies_ms(run.opens, false));
        const double p50_traced = median(latencies_ms(run.traced_opens, false));
        rep.add("trace.overhead_frac", ratio(p50_traced - p50, p50), "ratio");
        rep.add("trace.unattributed_ms", p50 - rr.blocking_ms_p50, "ms");
        std::printf("  replay: %d requests, blocking path p50 %.3f ms", n,
                    rr.blocking_ms_p50);
        if (spec.codec == 0)
            std::printf("; tier-1 share of decode: lossless %.1f%%, lossy %.1f%%",
                        100 * rr.tier1_frac_lossless, 100 * rr.tier1_frac_lossy);
        std::printf("\n");
        tracks.push_back(std::move(client));
        tracks.push_back(std::move(tr));
    }

    for (const metric& m : rep.metrics)
        std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("  correct %s  valid %s  attempted %zu  failed %zu\n",
                rep.correct ? "yes" : "NO", rep.valid ? "yes" : "NO", rep.attempted,
                rep.failed);
    print_json(rep, o, spec, run);
    std::fflush(stdout);
    return rep;
}

[[noreturn]] void usage()
{
    std::fprintf(stderr,
                 "usage: j2ne_bench --seed N [--workload NAME] [--seconds S] "
                 "[--trace FILE]\n"
                 "       j2ne_bench --smoke [--seed N]\n"
                 "       j2ne_bench --selftest [--seed N]\n");
    std::exit(2);
}

options parse(int argc, char** argv)
{
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--workload") {
            const std::string w = value();
            const workload_spec* s = find_workload(w);
            if (!s) {
                std::fprintf(stderr, "unknown workload %s\n", w.c_str());
                usage();
            }
            o.workloads.push_back(s);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
            if (!(o.seconds > 0.0)) usage();
        } else if (a == "--trace") {
            o.trace_path = value();
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--selftest") {
            o.selftest = true;
        } else {
            usage();
        }
    }
    if (o.smoke) {
        // One short round per workload, one set-up, the traced replay: < 30 s.
        o.seconds = 3.0;
        o.setups = 1;
        o.rounds = 1;
        if (o.trace_path.empty()) o.trace_path = "smoke.trace.json";
    }
    if (o.selftest) {
        o.seconds = 2.0;
        o.setups = 1;
        o.rounds = 1;
        o.trace_path.clear();
        o.workloads = {find_workload("zipf_small")};
    }
    if (o.workloads.empty())
        for (const auto& w : workloads()) o.workloads.push_back(&w);
    return o;
}

}  // namespace

int main(int argc, char** argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // timerfd due-time wakeups without slack
    const options o = parse(argc, argv);
    try {
        std::vector<spans::track> tracks;
        std::vector<report> reps;
        const cpu_split cpus = split_cpus();
        for (const workload_spec* w : o.workloads)
            reps.push_back(run_workload(*w, o, cpus, tracks));
        if (!o.trace_path.empty()) {
            if (!spans::write_chrome_json(o.trace_path, tracks)) {
                std::fprintf(stderr, "cannot write trace %s\n", o.trace_path.c_str());
                return 1;
            }
            std::printf("trace: %s (open in ui.perfetto.dev)\n", o.trace_path.c_str());
        }
        if (o.selftest) {
            const bool caught = !reps.front().correct && reps.front().mismatches > 0;
            std::printf("selftest: corrupted expected byte %s (%zu mismatches reported)\n",
                        caught ? "detected" : "NOT detected", reps.front().mismatches);
            return caught ? 0 : 1;
        }
        bool ok = true;
        for (const report& r : reps) ok = ok && r.correct && r.valid;
        return ok ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "j2ne_bench: %s\n", e.what());
        return 1;
    }
}
