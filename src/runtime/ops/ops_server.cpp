#include "ops_server.hpp"

#include "../net/poller.hpp"
#include "http.hpp"

#include <atomic>
#include <cerrno>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <sys/socket.h>
#include <unistd.h>

namespace runtime::ops {

namespace {

constexpr std::uint64_t k_listener_id = 0;
constexpr std::uint64_t k_first_conn_id = 1;

/// Trailing windows every rolling-stage family is exposed over.
constexpr int k_windows_s[] = {1, 10, 60};

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
        : cfg_{std::move(cfg)}, svc_{svc}
    {
    }

    ~impl() { stop(); }

    // ---- lifecycle -------------------------------------------------------

    void start()
    {
        if (running_) return;
        auto l = std::make_unique<net::listener>(cfg_.bind_address, cfg_.port, false);
        auto p = std::make_unique<net::poller>();
        p->add(l->fd(), k_listener_id, false);
        port_ = l->port();
        listener_ = std::move(l);
        poller_ = std::move(p);

        stop_requested_.store(false, std::memory_order_relaxed);
        running_ = true;
        loop_thread_ = std::thread{[this] { run_loop(); }};
    }

    void stop()
    {
        if (!running_) return;
        // The wake ends the loop's wait at once, not at the next
        // aggregation tick.
        stop_requested_.store(true, std::memory_order_release);
        poller_->wake();
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
                // A wake (poller::k_wake_id) maps to no connection; the loop
                // condition reads what it announced.
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

        poller_->remove(listener_->fd());
        listener_.reset();
        for (auto& [id, c] : conns_) {
            poller_->remove(c->fd);
            ::close(c->fd);
        }
        conns_.clear();
    }

    void accept_ready()
    {
        int fd = -1;
        while ((fd = listener_->accept(accepts_failed_)) >= 0) {
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

    /// Every metric the ops plane exposes: the service's, the rolling stage
    /// windows, span and tracer totals, the extras and its own counters.
    void for_each(obs::metric_sink& out)
    {
        using enum obs::metric_type;
        const auto real = [](double x, int d) { return obs::metric_value::real(x, d); };
        drain_spans();
        out.begin("service");
        svc_.metrics().for_each(out);
        out.end();

        // Rolling per-stage windows (live p50/p99 from drained spans).
        const std::uint64_t now = obs::tracer::instance().now_ns();
        out.begin("stages");
        for (const std::string& st : rolling_.stages()) {
            out.begin(st);
            for (const int w : k_windows_s) {
                const auto ws = rolling_.window(st, w, now);
                const std::string win = std::to_string(w) + "s";
                const obs::metric_label at[] = {{"stage", st}, {"window", win}};
                const obs::metric_label p50[] = {
                    {"stage", st}, {"window", win}, {"quantile", "0.5"}};
                const obs::metric_label p99[] = {
                    {"stage", st}, {"window", win}, {"quantile", "0.99"}};
                out.begin(win);
                out.add({.family = "stage_window_count", .type = gauge, .labels = at,
                         .key = "count"},
                        ws.count);
                out.add({.family = "stage_rate_per_second", .type = gauge, .labels = at,
                         .key = "rate_per_s"},
                        real(ws.rate_per_s, 3));
                out.add({.key = "mean_ns"}, real(ws.mean_ns, 0));
                out.add({.family = "stage_latency_ns", .type = gauge, .labels = p50,
                         .key = "p50_ns"},
                        real(ws.p50_ns, 0));
                out.add({.family = "stage_latency_ns", .type = gauge, .labels = p99,
                         .key = "p99_ns"},
                        real(ws.p99_ns, 0));
                out.add({.key = "max_ns"}, ws.max_ns);
                out.end();
            }
            out.end();
        }
        out.end();

        const auto rt = rolling_.get_totals();
        out.begin("spans");
        out.add_counter("spans_recorded_total", "recorded", rt.spans);
        out.add_counter("spans_unmatched_ends_total", "unmatched_ends",
                        rt.unmatched_ends);
        out.add_counter("spans_dropped_stages_total", "dropped_stages",
                        rt.dropped_stages);
        out.add_gauge("spans_open", "open", rt.open_spans);
        const stats_snapshot st = stats();
        out.add_counter("ops_spans_consumed_total", "consumed_events", st.spans_consumed);
        out.end();

        const auto ts = obs::tracer::instance().get_stats();
        out.begin("tracer");
        out.add_gauge("trace_threads", "threads", ts.threads);
        out.add_counter("trace_events_pushed_total", "pushed", ts.pushed);
        out.add_counter("trace_events_overwritten_total", "overwritten", ts.overwritten);
        out.end();

        out.begin("extra");
        if (extra_) {
            for (const extra_sample& e : extra_()) {
                std::vector<obs::metric_label> labels;
                for (const auto& [k, v] : e.labels) labels.push_back({k, v});
                const std::string key = e.family + obs::prometheus_labels(labels);
                out.add({.family = e.family, .type = e.type, .labels = labels,
                         .key = key},
                        e.value);
            }
        }
        out.end();

        out.begin("ops");
        out.add_counter("ops_requests_total", "requests", st.requests);
        out.add_counter("ops_accepts_failed_total", "accepts_failed", st.accepts_failed);
        out.add_counter("ops_bad_requests_total", "bad_requests", st.bad_requests);
        out.add_counter("ops_not_found_total", "not_found", st.not_found);
        out.add_counter("ops_scrapes_total", "scrapes", st.scrapes);
        out.add_counter("ops_trace_requests_total", "trace_requests", st.trace_requests);
        out.end();
    }

    stats_snapshot stats() const noexcept
    {
        stats_snapshot s;
        s.requests = requests_.load(std::memory_order_relaxed);
        s.accepts_failed = accepts_failed_.load(std::memory_order_relaxed);
        s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
        s.not_found = not_found_.load(std::memory_order_relaxed);
        s.scrapes = scrapes_.load(std::memory_order_relaxed);
        s.trace_requests = trace_requests_.load(std::memory_order_relaxed);
        s.spans_consumed = spans_consumed_.load(std::memory_order_relaxed);
        return s;
    }

    std::string render_prometheus()
    {
        obs::prometheus_text out{cfg_.metric_prefix};
        for_each(out);
        return out.str();
    }

    std::string render_json()
    {
        obs::json_text out;
        for_each(out);
        return out.str();
    }

    // ---- state -----------------------------------------------------------

    ops_config cfg_;
    decode_service& svc_;
    ready_probe ready_;
    extras_fn extra_;

    obs::rolling_stats rolling_;
    std::mutex drain_m_;
    /// Private tracer cursor (guarded by drain_m_).  It starts when the plane
    /// is built, so the first drain reads only what followed, not every event
    /// the process has kept.
    std::uint64_t cursor_ = obs::tracer::instance().now_ns();
    std::uint64_t last_drain_ns_ = 0;

    std::unique_ptr<net::listener> listener_;  ///< open while the loop runs
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

void ops_server::set_extra_counters(extras_fn f) { impl_->extra_ = std::move(f); }

void ops_server::start() { impl_->start(); }

void ops_server::stop() { impl_->stop(); }

std::uint16_t ops_server::port() const noexcept { return impl_->port_; }

obs::rolling_stats& ops_server::stages() noexcept { return impl_->rolling_; }

std::string ops_server::metrics_text() { return impl_->render_prometheus(); }

std::string ops_server::metrics_json() { return impl_->render_json(); }

ops_server::stats_snapshot ops_server::stats() const noexcept { return impl_->stats(); }

}  // namespace runtime::ops
