// runtime/ops/ops_server.hpp — the live ops plane: a minimal HTTP/1.1 server
// on its own listener + thread exposing the process's observability surfaces
// while decode traffic runs.
//
//   GET /            tiny auto-refreshing HTML status page
//   GET /healthz     liveness: 200 as long as the loop thread serves
//   GET /readyz      readiness: 200, or 503 once the ready probe says no
//                    (default probe: the decode service is not draining)
//   GET /metrics     Prometheus text exposition (default) or the composite
//                    JSON document with ?format=json
//   GET /trace       complete Chrome trace-event JSON (strict, one document)
//   GET /trace?since_ns=N   incremental tail: events with ts >= N as
//                    concatenable array elements; the X-Trace-Next-Since-Ns
//                    response header carries the cursor for the next call
//
// The server owns an obs::rolling_stats and drains the span tracer through a
// private cursor every aggregate_interval_ms, so /metrics answers with *live*
// per-stage p50/p99 over trailing 1 s / 10 s / 60 s windows.  The cursor
// starts when the plane is constructed: the windows cover spans that end
// after that, and a span still open at that moment counts as an unmatched
// end.  Each drain reads only the events since the last one (see
// tracer::collect_since).  Draining the tracer is non-destructive, so this
// coexists with /trace tails and with the end-of-run write_json_file dump.
//
// It shares the socket layer with the decode front-end (net/poller.hpp: the
// epoll poller and the listener, with its backlog and its shedding at fd
// exhaustion) but runs a much simpler connection model: one request, one
// response, Connection: close.
#pragma once

#include "../service.hpp"

#include <obs/obs.hpp>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace runtime::ops {

struct ops_config {
    std::string bind_address = "127.0.0.1";  ///< ops plane defaults to loopback
    std::uint16_t port = 0;                  ///< 0 → ephemeral, see port()
    std::size_t max_request_bytes = 8 * 1024;  ///< header cap → 431 beyond
    std::string metric_prefix = "j2k";   ///< prefix for every exposed family
    int aggregate_interval_ms = 250;     ///< span-drain cadence for rolling stats
};

class ops_server {
public:
    /// Readiness probe for /readyz; defaults to "service is not draining".
    using ready_probe = std::function<bool()>;
    /// One sample merged into /metrics and the JSON document's "extra" object
    /// — how the process wires front-end stats (e.g. net::server::stats()) in
    /// without the ops plane depending on the front-end type.  The family and
    /// label keys are sanitised for Prometheus; the JSON key is the family as
    /// given plus the rendered label block (`net_frames_in_total{shard="0"}`).
    struct extra_sample {
        std::string family;
        std::uint64_t value = 0;
        obs::metric_type type = obs::metric_type::counter;
        std::vector<std::pair<std::string, std::string>> labels = {};
    };
    using extras_fn = std::function<std::vector<extra_sample>()>;

    explicit ops_server(decode_service& svc, ops_config cfg = {});
    ~ops_server();  ///< implies stop()

    ops_server(const ops_server&) = delete;
    ops_server& operator=(const ops_server&) = delete;

    /// Both setters must run before start().
    void set_ready_probe(ready_probe p);
    void set_extra_counters(extras_fn f);

    /// Bind and start the loop thread.  Throws std::system_error on socket
    /// failures (a bind address that is not numeric IPv4, a port in use),
    /// leaving no fd open.
    void start();
    void stop();
    [[nodiscard]] std::uint16_t port() const noexcept;

    /// The rolling per-stage aggregator (tests inspect windows directly).
    [[nodiscard]] obs::rolling_stats& stages() noexcept;

    /// Render the exposition documents without going through a socket —
    /// exactly what /metrics serves (drains the tracer first, like a scrape).
    [[nodiscard]] std::string metrics_text();
    [[nodiscard]] std::string metrics_json();

    struct stats_snapshot {
        std::uint64_t requests = 0;        ///< complete requests parsed
        std::uint64_t accepts_failed = 0;  ///< accept() errors incl. fd exhaustion
        std::uint64_t bad_requests = 0;    ///< 400/431 responses
        std::uint64_t not_found = 0;       ///< 404 responses
        std::uint64_t scrapes = 0;         ///< /metrics hits
        std::uint64_t trace_requests = 0;  ///< /trace hits
        std::uint64_t spans_consumed = 0;  ///< events fed to rolling stats
    };
    [[nodiscard]] stats_snapshot stats() const noexcept;

private:
    struct impl;
    std::unique_ptr<impl> impl_;
};

}  // namespace runtime::ops
