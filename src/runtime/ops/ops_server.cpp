#include "ops_server.hpp"

#include "../net/poller.hpp"
#include "http.hpp"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <system_error>
#include <thread>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace runtime::ops {

namespace {

constexpr std::uint64_t k_listener_id = 0;
constexpr std::uint64_t k_first_conn_id = 1;

/// Trailing windows every rolling-stage family is exposed over.
constexpr int k_windows_s[] = {1, 10, 60};

/// Prometheus label-value escaping: backslash, quote, newline.
std::string label_escape(std::string_view v)
{
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
        if (c == '\\' || c == '"') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

void log_sockopt_failure(const char* what)
{
    std::fprintf(stderr, "runtime::ops: setsockopt(%s) failed: %s\n", what,
                 std::strerror(errno));
}

/// True when `s` is a well-formed Prometheus label block — `{key="value",...}`
/// with keys matching [a-zA-Z_][a-zA-Z0-9_]* and values free of raw '"', '\'
/// and newlines.  Extras carrying one (e.g. `net_frames_in_total{shard="0"}`)
/// pass it through to exposition verbatim; anything else falls back to
/// whole-name sanitisation.
bool valid_label_block(std::string_view s)
{
    if (s.size() < 2 || s.front() != '{' || s.back() != '}') return false;
    std::size_t i = 1;
    const std::size_t end = s.size() - 1;
    while (i < end) {
        const std::size_t key_start = i;
        if (!(std::isalpha(static_cast<unsigned char>(s[i])) || s[i] == '_'))
            return false;
        while (i < end &&
               (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_'))
            ++i;
        if (i == key_start || i >= end || s[i] != '=') return false;
        if (++i >= end || s[i] != '"') return false;
        ++i;
        while (i < end && s[i] != '"') {
            if (s[i] == '\\' || s[i] == '\n') return false;
            ++i;
        }
        if (i >= end) return false;  // unterminated value
        ++i;                         // past closing quote
        if (i < end) {
            if (s[i] != ',') return false;
            ++i;
            if (i == end) return false;  // trailing comma
        }
    }
    return s.size() > 2;  // reject the empty block
}

bool parse_u64(std::string_view s, std::uint64_t& out)
{
    if (s.empty() || s.size() > 20) return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9') return false;
        const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        if (v > (~std::uint64_t{0} - d) / 10) return false;  // overflow
        v = v * 10 + d;
    }
    out = v;
    return true;
}

constexpr const char k_index_html[] =
    "<!doctype html>\n"
    "<html><head><title>j2k ops</title>\n"
    "<style>body{font-family:monospace;margin:1.5em;max-width:72em}"
    "pre{background:#f4f4f4;padding:1em;overflow-x:auto}"
    "a{margin-right:.75em}</style></head><body>\n"
    "<h3>JPEG 2000 decode service &mdash; live ops plane</h3>\n"
    "<p><a href=\"/metrics\">/metrics</a>"
    "<a href=\"/metrics?format=json\">/metrics?format=json</a>"
    "<a href=\"/healthz\">/healthz</a>"
    "<a href=\"/readyz\">/readyz</a>"
    "<a href=\"/trace\">/trace</a></p>\n"
    "<pre id=\"m\">loading&hellip;</pre>\n"
    "<script>\n"
    "async function tick(){\n"
    "  try{const r=await fetch('/metrics');\n"
    "      document.getElementById('m').textContent=await r.text();}\n"
    "  catch(e){document.getElementById('m').textContent='scrape failed: '+e;}\n"
    "}\n"
    "tick();setInterval(tick,1000);\n"
    "</script></body></html>\n";

}  // namespace

struct ops_server::impl {
    impl(decode_service& svc, ops_config cfg)
        : cfg_{std::move(cfg)},
          svc_{svc},
          prefix_{obs::prometheus_name(cfg_.metric_prefix)}
    {
    }

    ~impl() { stop(); }

    // ---- lifecycle -------------------------------------------------------

    void start()
    {
        if (running_) return;
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) net::throw_errno("socket");
        const int one = 1;
        if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0)
            log_sockopt_failure("SO_REUSEADDR");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(cfg_.port);
        if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw std::system_error{EINVAL, std::generic_category(),
                                    "bad bind address (numeric IPv4 expected)"};
        }
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
            ::listen(listen_fd_, cfg_.listen_backlog) < 0) {
            const int err = errno;
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw std::system_error{err, std::generic_category(), "bind/listen"};
        }
        net::set_nonblocking(listen_fd_);
        socklen_t alen = sizeof addr;
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) < 0) {
            // Without the bound address, port() would report garbage.
            const int err = errno;
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw std::system_error{err, std::generic_category(), "getsockname"};
        }
        port_ = ntohs(addr.sin_port);

        // Emergency reserve fd, released to shed a pending connection when
        // accept() hits EMFILE/ENFILE (see net::accept_or_shed).
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

        poller_ = net::make_poller(cfg_.use_poll);
        poller_->add(listen_fd_, k_listener_id, false);

        stop_requested_.store(false, std::memory_order_relaxed);
        running_ = true;
        loop_thread_ = std::thread{[this] { run_loop(); }};
    }

    void stop()
    {
        if (!running_) return;
        // The loop polls with a bounded timeout (the aggregation cadence), so
        // a flag is enough — no wake pipe needed for a sub-interval exit.
        stop_requested_.store(true, std::memory_order_release);
        loop_thread_.join();
        running_ = false;
    }

    // ---- event loop ------------------------------------------------------

    struct connection {
        int fd = -1;
        std::uint64_t id = 0;
        http_parser parser;
        std::string out;          ///< complete response, possibly partially sent
        std::size_t out_off = 0;
        bool responding = false;  ///< request done; draining the response
        bool want_write = false;

        explicit connection(std::size_t max_bytes) : parser{max_bytes} {}
    };

    void run_loop()
    {
        obs::tracer::instance().set_thread_name("ops-loop");
        std::vector<net::ready_event> events;
        const int interval =
            cfg_.aggregate_interval_ms > 0 ? cfg_.aggregate_interval_ms : 250;
        while (!stop_requested_.load(std::memory_order_acquire)) {
            events.clear();
            poller_->wait(events, interval);
            for (const net::ready_event& ev : events) {
                if (ev.id == k_listener_id) {
                    accept_ready();
                    continue;
                }
                auto it = conns_.find(ev.id);
                if (it == conns_.end()) continue;
                connection& c = *it->second;
                if (ev.hangup && !ev.readable) {
                    close_conn(c);
                    continue;
                }
                if (ev.writable) on_writable(c);
                if (conns_.count(ev.id) && ev.readable) on_readable(c);
            }
            // Aggregation tick: keep the rolling windows warm even with no
            // scraper attached, so the first /metrics after a quiet spell
            // still answers from fresh slots.
            const std::uint64_t now = obs::tracer::instance().now_ns();
            if (now - last_drain_ns_ >= static_cast<std::uint64_t>(interval) * 1'000'000u) {
                last_drain_ns_ = now;
                drain_spans();
            }
        }

        if (listen_fd_ >= 0) {
            poller_->remove(listen_fd_);
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        for (auto& [id, c] : conns_) {
            poller_->remove(c->fd);
            ::close(c->fd);
        }
        conns_.clear();
        if (reserve_fd_ >= 0) {
            ::close(reserve_fd_);
            reserve_fd_ = -1;
        }
    }

    void accept_ready()
    {
        int fd = -1;
        while ((fd = net::accept_or_shed(listen_fd_, reserve_fd_, accepts_failed_)) >= 0) {
            net::set_nonblocking(fd);
            const int one = 1;
            if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0)
                log_sockopt_failure("TCP_NODELAY");
            auto c = std::make_unique<connection>(cfg_.max_request_bytes);
            c->fd = fd;
            c->id = next_conn_id_++;
            poller_->add(fd, c->id, false);
            conns_.emplace(c->id, std::move(c));
        }
    }

    void on_readable(connection& c)
    {
        if (c.responding) return;  // one request per connection; drop the rest
        char buf[4096];
        for (;;) {
            const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
                close_conn(c);
                return;
            }
            if (n == 0) {  // EOF before a complete request
                close_conn(c);
                return;
            }
            const auto st = c.parser.feed({buf, static_cast<std::size_t>(n)});
            if (st == http_parser::state::partial) continue;
            begin_response(c, st);
            return;
        }
    }

    void begin_response(connection& c, http_parser::state st)
    {
        switch (st) {
            case http_parser::state::complete:
                requests_.fetch_add(1, std::memory_order_relaxed);
                c.out = respond(c.parser.request());
                break;
            case http_parser::state::bad:
                bad_requests_.fetch_add(1, std::memory_order_relaxed);
                c.out = make_response(400, "text/plain", "bad request\n");
                break;
            case http_parser::state::too_large:
                bad_requests_.fetch_add(1, std::memory_order_relaxed);
                c.out = make_response(431, "text/plain", "request too large\n");
                break;
            case http_parser::state::partial:
                return;  // unreachable: caller checked
        }
        c.responding = true;
        on_writable(c);
    }

    void on_writable(connection& c)
    {
        if (!c.responding) return;
        while (c.out_off < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                     c.out.size() - c.out_off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                if (errno == EINTR) continue;
                close_conn(c);
                return;
            }
            c.out_off += static_cast<std::size_t>(n);
        }
        if (c.out_off == c.out.size()) {
            close_conn(c);  // Connection: close — every response ends the conn
            return;
        }
        if (!c.want_write) {
            c.want_write = true;
            poller_->update(c.fd, c.id, true);
        }
    }

    void close_conn(connection& c)
    {
        poller_->remove(c.fd);
        ::close(c.fd);
        conns_.erase(c.id);  // destroys c — must be the last use
    }

    // ---- request handling ------------------------------------------------

    std::string respond(const http_request& r)
    {
        if (r.method != "GET")
            return make_response(405, "text/plain", "method not allowed\n");
        if (r.path == "/healthz") return make_response(200, "text/plain", "ok\n");
        if (r.path == "/readyz") {
            const bool ready = ready_ ? ready_() : !svc_.draining();
            return ready ? make_response(200, "text/plain", "ready\n")
                         : make_response(503, "text/plain", "draining\n");
        }
        if (r.path == "/metrics") {
            scrapes_.fetch_add(1, std::memory_order_relaxed);
            if (query_param(r.query, "format") == "json")
                return make_response(200, "application/json", render_json());
            return make_response(200, "text/plain; version=0.0.4; charset=utf-8",
                                 render_prometheus());
        }
        if (r.path == "/trace") return respond_trace(r);
        if (r.path == "/") return make_response(200, "text/html; charset=utf-8",
                                                k_index_html);
        not_found_.fetch_add(1, std::memory_order_relaxed);
        return make_response(404, "text/plain", "not found\n");
    }

    std::string respond_trace(const http_request& r)
    {
        trace_requests_.fetch_add(1, std::memory_order_relaxed);
        const std::string_view since = query_param(r.query, "since_ns");
        if (since.empty() && r.query.find("since_ns") == std::string::npos) {
            // Complete document: strict JSON, loadable as-is.
            std::ostringstream os;
            obs::tracer::instance().write_json(os);
            return make_response(200, "application/json", os.str());
        }
        std::uint64_t cursor = 0;
        if (!parse_u64(since, cursor)) {
            bad_requests_.fetch_add(1, std::memory_order_relaxed);
            return make_response(400, "text/plain",
                                 "since_ns must be a decimal integer\n");
        }
        // Tail chunk: array elements only.  The first chunk (cursor 0) gets
        // the opening bracket so a client that just concatenates chunks holds
        // the Chrome JSON Array Format (trailing comma + missing "]" are
        // tolerated by Perfetto / chrome://tracing).
        std::ostringstream os;
        if (cursor == 0) os << "[\n";
        const auto tail = obs::tracer::instance().write_json_tail(os, cursor);
        std::vector<std::string> hdrs;
        hdrs.push_back("X-Trace-Next-Since-Ns: " + std::to_string(tail.next_since_ns));
        hdrs.push_back("X-Trace-Events: " + std::to_string(tail.events));
        return make_response(200, "application/json", os.str(), hdrs);
    }

    // ---- aggregation + exposition ----------------------------------------

    /// Advance the private tracer cursor and feed the rolling aggregator.
    /// Runs on the loop thread each tick and on any thread that renders
    /// /metrics; the mutex makes cursor advancement atomic with consumption
    /// so no batch is ever double-fed.
    void drain_spans()
    {
        std::lock_guard lk{drain_m_};
        const auto batch = obs::tracer::instance().collect_since(cursor_);
        cursor_ = obs::tracer::next_cursor(batch, cursor_);
        if (!batch.empty()) {
            rolling_.consume(batch);
            spans_consumed_.fetch_add(batch.size(), std::memory_order_relaxed);
        }
    }

    std::string render_prometheus()
    {
        drain_spans();
        const metrics_snapshot s = svc_.metrics();
        std::string out;
        out.reserve(8192);
        char b[512];
        const char* P = prefix_.c_str();
        auto emitf = [&](const char* fmt, auto... a) {
            std::snprintf(b, sizeof b, fmt, a...);
            out += b;
        };
        auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };

        // Process metadata.
        emitf("# TYPE %s_build_info gauge\n"
              "%s_build_info{type=\"%s\",compiler=\"%s\"} 1\n",
              P, P, label_escape(s.build).c_str(), label_escape(s.compiler).c_str());
        emitf("%s_uptime_seconds %.3f\n", P, s.uptime_s);
        emitf("%s_pool_threads %d\n", P, s.pool_threads);
        emitf("%s_tracing_armed %d\n", P, s.tracing_armed ? 1 : 0);

        // Admission counters.
        emitf("# TYPE %s_jobs_submitted_total counter\n%s_jobs_submitted_total %llu\n",
              P, P, u(s.jobs_submitted));
        emitf("%s_jobs_completed_total %llu\n", P, u(s.jobs_completed));
        emitf("%s_jobs_failed_total %llu\n", P, u(s.jobs_failed));
        emitf("%s_jobs_rejected_total %llu\n", P, u(s.jobs_rejected));
        emitf("%s_jobs_dropped_total %llu\n", P, u(s.jobs_dropped));
        emitf("%s_jobs_promoted_total %llu\n", P, u(s.jobs_promoted));
        emitf("%s_jobs_batched_total %llu\n", P, u(s.jobs_batched));
        for (std::size_t p = 0; p < priority_count; ++p) {
            const char* pn = priority_name(static_cast<priority>(p));
            emitf("%s_jobs_shed_total{priority=\"%s\",kind=\"rejected\"} %llu\n", P,
                  pn, u(s.shed_by_priority[p].rejected));
            emitf("%s_jobs_shed_total{priority=\"%s\",kind=\"dropped\"} %llu\n", P,
                  pn, u(s.shed_by_priority[p].dropped));
        }
        emitf("%s_queue_depth_high_water %llu\n", P, u(s.queue_depth_high_water));

        // Progressive streaming.
        emitf("%s_jobs_progressive_total %llu\n", P, u(s.jobs_progressive));
        emitf("%s_layers_emitted_total %llu\n", P, u(s.layers_emitted));
        emitf("%s_progressive_cancelled_total %llu\n", P, u(s.progressive_cancelled));
        emitf("%s_t1_segment_bytes_total %llu\n", P, u(s.t1_segment_bytes));
        emitf("%s_progressive_active_high_water %llu\n", P,
              u(s.progressive_active_high_water));

        // Decoded-result cache.
        emitf("# TYPE %s_cache_hits_total counter\n%s_cache_hits_total %llu\n", P, P,
              u(s.cache_hits));
        emitf("%s_cache_misses_total %llu\n", P, u(s.cache_misses));
        emitf("%s_cache_collapses_total %llu\n", P, u(s.cache_collapses));
        emitf("%s_cache_evictions_total %llu\n", P, u(s.cache_evictions));
        emitf("%s_cache_session_resumes_total %llu\n", P, u(s.cache_session_resumes));
        emitf("# TYPE %s_cache_bytes gauge\n%s_cache_bytes %llu\n", P, P,
              u(s.cache_bytes));
        emitf("%s_cache_pinned_bytes %llu\n", P, u(s.cache_pinned_bytes));
        emitf("%s_cache_entries %llu\n", P, u(s.cache_entries));
        emitf("%s_cache_session_entries %llu\n", P, u(s.cache_session_entries));

        // Per-codec split, labelled by registered backend name.  The cache
        // hit/miss breakdown rides along so a dashboard can tell a cold codec
        // from an unused one.
        if (!s.by_codec.empty()) {
            emitf("# TYPE %s_codec_jobs_completed_total counter\n", P);
            for (const auto& c : s.by_codec)
                emitf("%s_codec_jobs_completed_total{codec=\"%s\"} %llu\n", P,
                      label_escape(c.name).c_str(), u(c.completed));
            emitf("# TYPE %s_codec_jobs_failed_total counter\n", P);
            for (const auto& c : s.by_codec)
                emitf("%s_codec_jobs_failed_total{codec=\"%s\"} %llu\n", P,
                      label_escape(c.name).c_str(), u(c.failed));
            emitf("# TYPE %s_codec_jobs_unsupported_total counter\n", P);
            for (const auto& c : s.by_codec)
                emitf("%s_codec_jobs_unsupported_total{codec=\"%s\"} %llu\n", P,
                      label_escape(c.name).c_str(), u(c.unsupported));
            emitf("# TYPE %s_codec_cache_hits_total counter\n", P);
            for (const auto& c : s.by_codec)
                emitf("%s_codec_cache_hits_total{codec=\"%s\"} %llu\n", P,
                      label_escape(c.name).c_str(), u(c.cache_hits));
            emitf("# TYPE %s_codec_cache_misses_total counter\n", P);
            for (const auto& c : s.by_codec)
                emitf("%s_codec_cache_misses_total{codec=\"%s\"} %llu\n", P,
                      label_escape(c.name).c_str(), u(c.cache_misses));
        }

        // Kernel dispatch (an info-style gauge: the selected ISA as a label)
        // and the per-job arena pool.
        emitf("# TYPE %s_kernel_dispatch gauge\n%s_kernel_dispatch{isa=\"%s\"} 1\n",
              P, P, s.kernel_isa);
        emitf("# TYPE %s_arena_leases_total counter\n%s_arena_leases_total %llu\n",
              P, P, u(s.arena_leases));
        emitf("%s_arena_dry_acquires_total %llu\n", P, u(s.arena_dry_acquires));
        emitf("%s_arena_fallback_allocs_total %llu\n", P, u(s.arena_fallback_allocs));
        emitf("# TYPE %s_arena_capacity_bytes gauge\n%s_arena_capacity_bytes %llu\n",
              P, P, u(s.arena_capacity_bytes));
        emitf("%s_arena_high_water_bytes %llu\n", P, u(s.arena_high_water_bytes));

        // Work + cumulative stage wall time.
        emitf("%s_tiles_decoded_total %llu\n", P, u(s.tiles_decoded));
        emitf("%s_tasks_stolen_total %llu\n", P, u(s.tasks_stolen));
        emitf("%s_pool_submissions_total %llu\n", P, u(s.pool_submissions));
        emitf("# TYPE %s_stage_wall_seconds_total counter\n", P);
        emitf("%s_stage_wall_seconds_total{stage=\"entropy\"} %.6f\n", P,
              s.entropy_ms / 1e3);
        emitf("%s_stage_wall_seconds_total{stage=\"iq\"} %.6f\n", P, s.iq_ms / 1e3);
        emitf("%s_stage_wall_seconds_total{stage=\"idwt\"} %.6f\n", P, s.idwt_ms / 1e3);
        emitf("%s_stage_wall_seconds_total{stage=\"finish\"} %.6f\n", P,
              s.finish_ms / 1e3);

        // End-to-end latency, summary-style.
        emitf("# TYPE %s_latency_us summary\n", P);
        emitf("%s_latency_us{quantile=\"0.5\"} %.1f\n", P, s.latency_p50_us);
        emitf("%s_latency_us{quantile=\"0.95\"} %.1f\n", P, s.latency_p95_us);
        emitf("%s_latency_us{quantile=\"0.99\"} %.1f\n", P, s.latency_p99_us);
        emitf("%s_latency_us_sum %.1f\n", P,
              s.latency_mean_us * static_cast<double>(s.latency_count));
        emitf("%s_latency_us_count %llu\n", P, u(s.latency_count));
        emitf("%s_latency_us_max %llu\n", P, u(s.latency_max_us));
        for (std::size_t p = 0; p < priority_count; ++p) {
            const char* pn = priority_name(static_cast<priority>(p));
            emitf("%s_priority_latency_us{priority=\"%s\",quantile=\"0.5\"} %.1f\n",
                  P, pn, s.latency_by_priority[p].p50_us);
            emitf("%s_priority_latency_us{priority=\"%s\",quantile=\"0.99\"} %.1f\n",
                  P, pn, s.latency_by_priority[p].p99_us);
            emitf("%s_priority_latency_us_count{priority=\"%s\"} %llu\n", P, pn,
                  u(s.latency_by_priority[p].count));
        }

        // Rolling per-stage windows (live p50/p99 from drained spans).
        const std::uint64_t now = obs::tracer::instance().now_ns();
        emitf("# TYPE %s_stage_latency_ns gauge\n", P);
        for (const std::string& st : rolling_.stages()) {
            const std::string esc = label_escape(st);
            for (const int w : k_windows_s) {
                const auto ws = rolling_.window(st, w, now);
                emitf("%s_stage_latency_ns{stage=\"%s\",window=\"%ds\","
                      "quantile=\"0.5\"} %.0f\n",
                      P, esc.c_str(), w, ws.p50_ns);
                emitf("%s_stage_latency_ns{stage=\"%s\",window=\"%ds\","
                      "quantile=\"0.99\"} %.0f\n",
                      P, esc.c_str(), w, ws.p99_ns);
                emitf("%s_stage_rate_per_second{stage=\"%s\",window=\"%ds\"} %.3f\n",
                      P, esc.c_str(), w, ws.rate_per_s);
                emitf("%s_stage_window_count{stage=\"%s\",window=\"%ds\"} %llu\n", P,
                      esc.c_str(), w, u(ws.count));
            }
        }
        const auto rt = rolling_.get_totals();
        emitf("%s_spans_recorded_total %llu\n", P, u(rt.spans));
        emitf("%s_spans_unmatched_ends_total %llu\n", P, u(rt.unmatched_ends));
        emitf("%s_spans_open %llu\n", P, u(rt.open_spans));

        // Tracer health.
        const auto ts = obs::tracer::instance().get_stats();
        emitf("%s_trace_threads %llu\n", P, u(ts.threads));
        emitf("%s_trace_events_pushed_total %llu\n", P, u(ts.pushed));
        emitf("%s_trace_events_overwritten_total %llu\n", P, u(ts.overwritten));

        // Front-end extras (names sanitised here, at the exposition boundary).
        // A name may carry a label block — `family{shard="0"}` — in which case
        // the family is sanitised as a metric name and a well-formed block
        // passes through verbatim; malformed blocks degrade to whole-name
        // sanitisation rather than emitting broken exposition.
        if (extra_) {
            for (const auto& [name, v] : extra_()) {
                const std::size_t brace = name.find('{');
                if (brace != std::string::npos &&
                    valid_label_block(std::string_view{name}.substr(brace))) {
                    emitf("%s_%s%s %llu\n", P,
                          obs::prometheus_name(name.substr(0, brace)).c_str(),
                          name.substr(brace).c_str(), u(v));
                } else {
                    emitf("%s_%s %llu\n", P, obs::prometheus_name(name).c_str(),
                          u(v));
                }
            }
        }

        // Ops plane self-observation.
        emitf("%s_ops_requests_total %llu\n", P,
              u(requests_.load(std::memory_order_relaxed)));
        emitf("%s_ops_accepts_failed_total %llu\n", P,
              u(accepts_failed_.load(std::memory_order_relaxed)));
        emitf("%s_ops_bad_requests_total %llu\n", P,
              u(bad_requests_.load(std::memory_order_relaxed)));
        emitf("%s_ops_not_found_total %llu\n", P,
              u(not_found_.load(std::memory_order_relaxed)));
        emitf("%s_ops_scrapes_total %llu\n", P,
              u(scrapes_.load(std::memory_order_relaxed)));
        emitf("%s_ops_trace_requests_total %llu\n", P,
              u(trace_requests_.load(std::memory_order_relaxed)));
        emitf("%s_ops_spans_consumed_total %llu\n", P,
              u(spans_consumed_.load(std::memory_order_relaxed)));
        return out;
    }

    std::string render_json()
    {
        drain_spans();
        std::string out;
        out.reserve(4096);
        char b[512];
        auto emitf = [&](const char* fmt, auto... a) {
            std::snprintf(b, sizeof b, fmt, a...);
            out += b;
        };
        out += "{\"service\":";
        out += svc_.metrics().to_json();
        out += ",\"stages\":{";
        const std::uint64_t now = obs::tracer::instance().now_ns();
        bool first_stage = true;
        for (const std::string& st : rolling_.stages()) {
            if (!first_stage) out += ',';
            first_stage = false;
            out += obs::json_quote(st);
            out += ":{";
            bool first_w = true;
            for (const int w : k_windows_s) {
                const auto ws = rolling_.window(st, w, now);
                if (!first_w) out += ',';
                first_w = false;
                emitf("\"%ds\":{\"count\":%llu,\"rate_per_s\":%.3f,\"mean_ns\":%.0f,"
                      "\"p50_ns\":%.0f,\"p99_ns\":%.0f,\"max_ns\":%llu}",
                      w, static_cast<unsigned long long>(ws.count), ws.rate_per_s,
                      ws.mean_ns, ws.p50_ns, ws.p99_ns,
                      static_cast<unsigned long long>(ws.max_ns));
            }
            out += '}';
        }
        const auto rt = rolling_.get_totals();
        const auto ts = obs::tracer::instance().get_stats();
        emitf("},\"spans\":{\"recorded\":%llu,\"unmatched_ends\":%llu,"
              "\"dropped_stages\":%llu,\"open\":%llu,\"consumed_events\":%llu}",
              static_cast<unsigned long long>(rt.spans),
              static_cast<unsigned long long>(rt.unmatched_ends),
              static_cast<unsigned long long>(rt.dropped_stages),
              static_cast<unsigned long long>(rt.open_spans),
              static_cast<unsigned long long>(
                  spans_consumed_.load(std::memory_order_relaxed)));
        emitf(",\"tracer\":{\"threads\":%llu,\"pushed\":%llu,\"overwritten\":%llu}",
              static_cast<unsigned long long>(ts.threads),
              static_cast<unsigned long long>(ts.pushed),
              static_cast<unsigned long long>(ts.overwritten));
        out += ",\"extra\":{";
        if (extra_) {
            bool first = true;
            for (const auto& [name, v] : extra_()) {
                if (!first) out += ',';
                first = false;
                out += obs::json_quote(name);
                emitf(":%llu", static_cast<unsigned long long>(v));
            }
        }
        emitf("},\"ops\":{\"requests\":%llu,\"bad_requests\":%llu,"
              "\"not_found\":%llu,\"scrapes\":%llu,\"trace_requests\":%llu}}",
              static_cast<unsigned long long>(requests_.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  bad_requests_.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(not_found_.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(scrapes_.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  trace_requests_.load(std::memory_order_relaxed)));
        return out;
    }

    // ---- state -----------------------------------------------------------

    ops_config cfg_;
    decode_service& svc_;
    const std::string prefix_;
    ready_probe ready_;
    counter_fn extra_;

    obs::rolling_stats rolling_;
    std::mutex drain_m_;
    std::uint64_t cursor_ = 0;  ///< private tracer cursor (guarded by drain_m_)
    std::uint64_t last_drain_ns_ = 0;

    int listen_fd_ = -1;
    int reserve_fd_ = -1;  ///< emergency fd released to shed at EMFILE
    std::uint16_t port_ = 0;
    std::unique_ptr<net::poller> poller_;
    std::unordered_map<std::uint64_t, std::unique_ptr<connection>> conns_;
    std::uint64_t next_conn_id_ = k_first_conn_id;

    std::thread loop_thread_;
    std::atomic<bool> stop_requested_{false};
    bool running_ = false;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> accepts_failed_{0};
    std::atomic<std::uint64_t> bad_requests_{0};
    std::atomic<std::uint64_t> not_found_{0};
    std::atomic<std::uint64_t> scrapes_{0};
    std::atomic<std::uint64_t> trace_requests_{0};
    std::atomic<std::uint64_t> spans_consumed_{0};
};

ops_server::ops_server(decode_service& svc, ops_config cfg)
    : impl_{std::make_unique<impl>(svc, std::move(cfg))}
{
}

ops_server::~ops_server() = default;  // impl dtor stops the loop

void ops_server::set_ready_probe(ready_probe p) { impl_->ready_ = std::move(p); }

void ops_server::set_extra_counters(counter_fn f) { impl_->extra_ = std::move(f); }

void ops_server::start() { impl_->start(); }

void ops_server::stop() { impl_->stop(); }

std::uint16_t ops_server::port() const noexcept { return impl_->port_; }

obs::rolling_stats& ops_server::stages() noexcept { return impl_->rolling_; }

std::string ops_server::metrics_text() { return impl_->render_prometheus(); }

std::string ops_server::metrics_json() { return impl_->render_json(); }

ops_server::stats_snapshot ops_server::stats() const noexcept
{
    stats_snapshot s;
    s.requests = impl_->requests_.load(std::memory_order_relaxed);
    s.accepts_failed = impl_->accepts_failed_.load(std::memory_order_relaxed);
    s.bad_requests = impl_->bad_requests_.load(std::memory_order_relaxed);
    s.not_found = impl_->not_found_.load(std::memory_order_relaxed);
    s.scrapes = impl_->scrapes_.load(std::memory_order_relaxed);
    s.trace_requests = impl_->trace_requests_.load(std::memory_order_relaxed);
    s.spans_consumed = impl_->spans_consumed_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace runtime::ops
