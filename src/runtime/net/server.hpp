// runtime/net/server.hpp — sharded async socket admission front-end for the
// decode service.
//
// The front-end runs `shards` independent event-loop shards.  Each shard owns
// its own `SO_REUSEPORT` listener on the same port, its own poller (epoll on
// Linux, poll(2) fallback), wake pipe, completion queue, small-job batcher,
// and stats block; the kernel hashes incoming connections across the
// listeners, so there is no shared accept lock and no cross-shard handoff — a
// connection lives its whole life on the shard that accepted it.  All shards
// feed the one shared `decode_service` pool; completions wake only the owning
// shard's self-pipe.  `shards = 1` (the default) is byte-for-byte the classic
// single-loop server; `shards = 0` sizes from hardware concurrency.
//
//   socket ──► [shard 0: listener+poller+batcher] ──┐
//   socket ──► [shard 1: listener+poller+batcher] ──┼─► decode_service (pool)
//   socket ──► [shard N: listener+poller+batcher] ──┘        │ worker:
//      ▲                                                     │ frame
//      └── framed response ◄── owning shard's queue + wake ◄─┘
//
// The data path is zero intermediate copy: payload bytes are recv()'d
// directly into the buffer that becomes the job's owned storage
// (`decode_service::submit_async` moves it, no memcpy; the buffer grows as
// bytes arrive, not on the header's word).  Results come back already packed
// in the `raw` layout (runtime/raw_image.hpp), so the pool worker frames a raw
// response with one copy of the shared bytes, off the loop; the server never
// encodes an image itself.
//
// Small-job batching: requests whose payload is below
// `small_job_threshold` are coalesced per poll iteration *per shard* and
// admitted through `submit_batch` — one pool pump for the whole burst instead
// of one per request.
//
// Overload never blocks a loop: configure the service with `reject` or
// `drop_oldest` (the default here is reject) and shed requests come back as
// framed `status::shed` responses.  Two further shedding valves protect the
// loops themselves:
//   * fd exhaustion — each shard holds an emergency reserve fd; on
//     EMFILE/ENFILE it releases the reserve, accepts the pending connection,
//     closes it immediately, and re-arms (counted in `accepts_failed`).
//     Without the shed, a level-triggered poller re-fires on the undrained
//     listener in a hot loop.
//   * slow readers — a connection whose unsent outbound queue exceeds
//     `max_outbound_bytes` (streamed progressive frames against a stalled
//     reader) is closed and its session cancelled (`slow_reader_closed`).
//
// Graceful drain (`stop()`): every shard's listener closes first, then the
// shared service drains — `decode_service::draining()` flips a /readyz probe
// at that moment — while the loops keep flushing in-flight responses; only
// then do the loops exit and the remaining connections flush synchronously.
//
// Progressive requests (k_flag_progressive) dispatch through
// `submit_progressive`: the worker streams one `status::streaming` frame per
// quality layer back through the owning shard's completion queue, and a
// per-connection liveness flag cancels the remaining layers the moment the
// client goes away.
#pragma once

#include "protocol.hpp"

#include <runtime/service.hpp>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace runtime::net {

struct server_config {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral (read the bound port via port())
    /// Decode service behind the loops.  `block` at admission would stall an
    /// event loop, so the server overrides it to `reject` unless the policy
    /// is already a non-blocking one.
    service_config service{.queue_capacity = 64, .policy = backpressure::reject};
    /// Event-loop shards, each with its own SO_REUSEPORT listener.  1 (the
    /// default) preserves the classic single-loop behaviour; 0 sizes from
    /// hardware concurrency (clamped to 16).
    std::size_t shards = 1;
    std::size_t max_payload = 64u << 20;       ///< frames above this are refused
    /// Per-connection unsent outbound byte cap: a reader stalled below the
    /// rate the server streams at is disconnected (and its progressive
    /// session cancelled) once this much response data is queued.
    std::size_t max_outbound_bytes = 64u << 20;
    std::size_t small_job_threshold = 4096;    ///< coalesce payloads below this
    /// Fixed SO_SNDBUF for accepted sockets (0 = kernel default with
    /// autotuning).  Setting it bounds kernel-side buffering per connection,
    /// which makes `max_outbound_bytes` the real backlog ceiling instead of
    /// "cap plus whatever the kernel autotunes to".
    int sndbuf_bytes = 0;
    bool use_poll = false;                     ///< force the poll(2) fallback
    int listen_backlog = 64;
};

class server {
public:
    explicit server(server_config cfg = {});
    ~server();  ///< implies stop()

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Bind every shard's listener, and start the event loop threads.  Throws
    /// std::system_error on socket failures.
    void start();

    /// Graceful drain: stop accepting on every shard, drain every admitted
    /// decode job, flush pending responses, close all connections, join the
    /// loop threads.  Idempotent.
    void stop();

    /// Actual bound port (after start(); useful with port = 0).  All shards
    /// listen on this one port.
    [[nodiscard]] std::uint16_t port() const noexcept;

    /// Event-loop shards actually running (resolved from config at start()).
    [[nodiscard]] std::size_t shards() const noexcept;

    /// The decode service behind the loops (metrics, queue depths).
    [[nodiscard]] decode_service& service() noexcept;
    [[nodiscard]] const decode_service& service() const noexcept;

    /// Loop-side counters (all monotonic except connections_open).
    struct stats_snapshot {
        std::uint64_t connections_accepted = 0;
        std::uint64_t connections_open = 0;
        std::uint64_t accepts_failed = 0;   ///< accept() errors incl. fd exhaustion
        std::uint64_t frames_in = 0;      ///< complete request frames parsed
        std::uint64_t responses_out = 0;  ///< response frames fully written
        std::uint64_t bytes_in = 0;
        std::uint64_t bytes_out = 0;
        std::uint64_t batches = 0;        ///< submit_batch calls (>= 2 jobs)
        std::uint64_t batched_jobs = 0;   ///< jobs admitted through those
        std::uint64_t bad_frames = 0;     ///< protocol errors (frame refused)
        std::uint64_t slow_reader_closed = 0;  ///< outbound-cap disconnects
        std::uint64_t progressive_streams = 0;  ///< progressive requests accepted
        std::uint64_t layer_frames_out = 0;     ///< streaming frames enqueued
        std::uint64_t streams_cancelled = 0;    ///< streams cut by client departure
    };
    /// Aggregate across every shard.
    [[nodiscard]] stats_snapshot stats() const noexcept;
    /// One shard's counters (shard < shards()).
    [[nodiscard]] stats_snapshot stats(std::size_t shard) const noexcept;

private:
    struct impl;
    std::unique_ptr<impl> impl_;
};

}  // namespace runtime::net
