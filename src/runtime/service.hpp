// runtime/service.hpp — a persistent, concurrent batch-decode service.
//
// The host-side production shape of the paper's architecture: where the OSSS
// model maps decode stages onto hardware resources behind queued channels,
// this service maps many whole decode jobs onto a fixed worker pool behind a
// bounded admission queue.
//
//   submit(bytes[, priority]) ─► [two_level_queue, backpressure] ─► thread_pool
//        │                                                             │
//        └── std::future<j2k::image> ◄── promise fulfilled ◄───────────┘
//   submit_async(bytes, opt, done) ─► ... ─► done(packed image, err)
//
// Admission is a two-level strict-priority queue: `interactive` jobs jump the
// `batch` backlog, with a starvation escape valve that promotes a batch job
// after `promote_after` consecutive bypassing interactive pops.  Every job,
// whatever its codec, takes one path (run_job): codec::backend lookup and
// capability gate, then a layer stream or a backend decode through the cache.
// A j2k decode fans out per tile on this service's pool (tiles are
// independent, so the result is byte-identical to a serial decode); idle
// workers steal tile subtasks from busy ones via lock-free Chase–Lev deques,
// so one large image parallelises even when it is the only job in flight.
// Results travel in wire form where they can.  Every result bound for a
// completion or the cache is packed once, on the worker, into a raw_image
// (runtime/raw_image.hpp: the J2NE `raw` payload, 1 byte per sample up to 8
// bits and 2 above), and its int32 image is freed before the completion runs.
// A completion receives a std::shared_ptr<const raw_image> — for a cache hit
// or a flight leader, the very object the cache holds — so a front-end frames
// a hit with one copy of its bytes.  A future receives an int32 image of its
// own: an uncached result moved in whole, a cached one unpacked.
// `shutdown()` drains: queued and running jobs complete, new submissions fail
// fast.
#pragma once

#include "metrics.hpp"
#include "queue.hpp"
#include "raw_image.hpp"
#include "thread_pool.hpp"

#include <j2k/codec.hpp>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

namespace codec {
class backend;  // codec/backend.hpp
}

namespace j2k {
class decode_session;  // j2k/session.hpp
}

namespace runtime {

template <typename Value>
class basic_decoded_cache;  // cache/decoded_cache.hpp
using raw_image_cache = basic_decoded_cache<raw_image>;
struct cache_key;

/// Base class of every service-raised error (delivered through futures).
class service_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// The admission queue was full and the policy is `reject`.
class admission_rejected : public service_error {
public:
    admission_rejected() : service_error{"decode_service: admission queue full"} {}
};

/// The job was evicted from the queue by a newer one (`drop_oldest`).
class job_dropped : public service_error {
public:
    job_dropped() : service_error{"decode_service: job dropped by newer submission"} {}
};

/// submit() after shutdown().
class service_stopped : public service_error {
public:
    service_stopped() : service_error{"decode_service: service is shut down"} {}
};

/// The request named a codec wire id absent from the registry, or asked a
/// registered codec for a capability it does not have (e.g. progressive
/// refinement from a lossless codec).  Typed so front-ends can answer with a
/// protocol-level rejection instead of a generic internal error.
class unsupported_codec : public service_error {
public:
    explicit unsupported_codec(std::uint8_t id, const char* why = "not registered")
        : service_error{"decode_service: codec " + std::to_string(int{id}) + " " + why},
          id_{id}
    {
    }
    [[nodiscard]] std::uint8_t id() const noexcept { return id_; }

private:
    std::uint8_t id_;
};

/// Per-request policy toward the decoded-result cache (no-op when the
/// service runs without one).
enum class cache_policy : std::uint8_t {
    use = 0,     ///< serve hits, join single-flight, insert on miss (default)
    bypass = 1,  ///< always decode; neither read nor populate the cache
    pin = 2,     ///< like `use`, but the inserted entry is exempt from eviction
};

/// Per-job decode knobs (mirror the j2k::decoder scalability controls).
struct decode_options {
    int discard_levels = 0;      ///< resolution: decode at 1/2^n size
    int max_quality_layers = 0;  ///< layered streams: first n layers (0 = all)
    int max_passes = 0;          ///< SNR: cap tier-1 passes per block (0 = all)
    /// Admission class: `interactive` jumps the batch backlog at the queue.
    priority prio = priority::batch;
    /// Decoded-result cache policy for this job.
    cache_policy cache = cache_policy::use;
    /// Codec wire id the payload is encoded with (0 = j2k, the founding
    /// codec).  Ids absent from the codec registry fail the job with a typed
    /// unsupported_codec error at execution time.
    std::uint8_t codec = 0;
};

struct service_config {
    int workers = 0;                  ///< pool size; <= 0 = hardware concurrency
    std::size_t queue_capacity = 64;  ///< pending-job bound (both priorities)
    /// Optional independent per-priority bounds (0 = shared bound only).
    /// Lets admission reserve headroom for interactive work while batch
    /// traffic is shed early — sheds are charged to the evicted priority.
    std::size_t interactive_capacity = 0;
    std::size_t batch_capacity = 0;
    backpressure policy = backpressure::block;
    /// Starvation escape valve: after this many consecutive interactive pops
    /// that bypassed waiting batch work, one batch job is promoted.
    std::size_t promote_after = 8;
    /// Copy the codestream into the job (safe default).  With false the
    /// caller guarantees the bytes outlive the returned future.
    bool copy_input = true;
    /// Byte budget of the decoded-result cache (0 = no cache).  Hot
    /// codestreams are served from cached results (packed in the wire
    /// layout: 1 byte per sample up to 8 bits) / resumed from cached session
    /// prefixes, and concurrent identical misses collapse to one decode (see
    /// cache/decoded_cache.hpp).
    std::size_t cache_bytes = 0;
    /// Not a setting: the service never reads it (decode scratch comes from
    /// the heap and is freed as each stage ends).  It is the size callers
    /// give a runtime::arena (runtime/arena.hpp) they build themselves.
    static constexpr std::size_t arena_bytes = 8u << 20;
};

class decode_service {
public:
    explicit decode_service(service_config cfg = {});
    ~decode_service();  ///< implies shutdown()

    decode_service(const decode_service&) = delete;
    decode_service& operator=(const decode_service&) = delete;

    /// Submit one codestream; the future yields the decoded image or throws
    /// (service_error subtypes for admission failures, codec exceptions for
    /// malformed streams).  With the `block` policy this call itself blocks
    /// while the queue is full — that is the backpressure.
    std::future<j2k::image> submit(std::span<const std::uint8_t> cs)
    {
        return submit(cs, decode_options{});
    }
    /// Submit at an explicit admission class with default decode knobs.
    std::future<j2k::image> submit(std::span<const std::uint8_t> cs, priority p)
    {
        return submit(cs, decode_options{.prio = p});
    }
    std::future<j2k::image> submit(std::span<const std::uint8_t> cs,
                                   const decode_options& opt);

    /// Ownership-transfer submit: `bytes` moves into the job, so an admission
    /// front-end that already owns a buffer (e.g. a socket read) pays no copy
    /// regardless of `copy_input`.
    std::future<j2k::image> submit(std::vector<std::uint8_t>&& bytes,
                                   const decode_options& opt = {});

    /// Completion callback for the future-less submission paths.  Exactly one
    /// of the two arguments is meaningful: `err` is null on success, `img`
    /// null on failure.  The result arrives packed in the wire layout and is
    /// shared, never copied: a cache hit (and the flight leader) hands over
    /// the object the cache keeps.  An uncached result is packed for this
    /// call alone, after its int32 image is freed.  Runs on a pool worker
    /// (or inline on the submitting thread for admission failures) — it must
    /// not block on the service.
    using completion =
        std::function<void(std::shared_ptr<const raw_image> img, std::exception_ptr err)>;

    /// Future-less submit for async front-ends: the outcome (including typed
    /// admission failures) is delivered through `done` instead of a future.
    void submit_async(std::vector<std::uint8_t>&& bytes, const decode_options& opt,
                      completion done);

    /// One refinement of a progressive job: the reconstruction after `layer`
    /// quality layers (1-based), out of the `total` the job will emit, packed
    /// in the wire layout (its int32 image is freed before the callback).
    struct layer_event {
        int layer = 0;
        int total = 0;
        bool last = false;
        std::shared_ptr<const raw_image> img;
    };

    /// Per-layer delivery for progressive jobs.  Called once per refinement on
    /// the decoding worker, in layer order; a non-null `err` is terminal (no
    /// further calls, `ev` is empty) and also covers admission failures.
    /// Return false to cancel the remaining layers — the job ends quietly and
    /// the cancellation is counted in the metrics.  Must not block on the
    /// service.
    using progressive_completion =
        std::function<bool(layer_event&& ev, std::exception_ptr err)>;

    /// Streamed decode: one layer_event per quality layer (a plain stream
    /// emits exactly one).  `opt.max_quality_layers` caps the depth;
    /// `opt.discard_levels` is not supported on this path and is ignored.
    /// Tier-1 state persists across refinements, so the arithmetic-decoding
    /// work over the whole job is O(L), not O(L²) (see j2k/session.hpp).
    void submit_progressive(std::vector<std::uint8_t>&& bytes, const decode_options& opt,
                            progressive_completion on_layer);

    /// One element of a coalesced small-job batch.
    struct batch_item {
        std::vector<std::uint8_t> bytes;
        decode_options opt;
        completion done;  ///< may be empty (fire-and-forget)
    };

    /// Admit several (small) jobs with a *single* pool pump: the pump pops and
    /// runs every admitted job sequentially, so a burst of tiny requests costs
    /// one pool submission instead of one each.  Per-item admission failures
    /// still settle individually through each item's `done`.  Returns the
    /// number of jobs actually enqueued.
    std::size_t submit_batch(std::vector<batch_item> items);

    /// Stop admitting and wait for every queued + running job to finish.
    /// Idempotent; also called by the destructor.
    void shutdown();

    /// True once shutdown() has begun (admission is closed).  A readiness
    /// probe keyed on this flips *before* in-flight jobs finish, so load
    /// balancers stop routing while the drain is still graceful.
    [[nodiscard]] bool draining() const
    {
        std::lock_guard lk{drain_m_};
        return stopped_;
    }

    [[nodiscard]] int workers() const noexcept { return pool_->size(); }
    /// Jobs admitted and not yet retired.  A job is destroyed (promise,
    /// completion, shared result) before it leaves this count, so 0 means no
    /// worker is still tearing one down.
    [[nodiscard]] std::size_t in_flight() const
    {
        std::lock_guard lk{drain_m_};
        return in_flight_;
    }
    [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
    [[nodiscard]] std::size_t queue_depth(priority p) const { return queue_.size(p); }

    /// The decoded-result cache (results packed in the wire layout), or null
    /// when cache_bytes == 0.
    [[nodiscard]] raw_image_cache* cache() noexcept { return cache_.get(); }
    [[nodiscard]] const raw_image_cache* cache() const noexcept { return cache_.get(); }

    /// Point-in-time metrics (queue high-water and cache stats merged in).
    [[nodiscard]] metrics_snapshot metrics() const;

private:
    struct job {
        std::promise<j2k::image> promise;
        completion done;  ///< when set, outcome goes here instead of promise
        /// Progressive jobs: per-layer delivery channel (errors included).
        progressive_completion on_layer;
        /// Exactly-once guard for the settle: the settle paths (worker
        /// success/failure, eviction, rejection, close during admission) can
        /// race, and std::promise throws on a second set.
        std::atomic<bool> settled{false};
        std::vector<std::uint8_t> owned;      ///< storage when copy_input
        std::span<const std::uint8_t> bytes;  ///< what the decoder reads
        /// True while `bytes` views `owned` (not a caller's borrowed span),
        /// so the buffer may be moved on to the cache.
        [[nodiscard]] bool owns_bytes() const noexcept
        {
            return !owned.empty() && owned.data() == bytes.data();
        }
        decode_options opt;
        std::chrono::steady_clock::time_point submitted_at;
        std::uint64_t trace_id = 0;  ///< correlates the async job span tree
    };
    using job_ptr = std::unique_ptr<job>;

    /// Success with an image of the job's own: a future takes it whole, a
    /// completion gets it packed (the image freed first).
    static void settle(job& j, j2k::image&& img);
    /// Success with a packed (cached) result: a completion gets the pointer, a
    /// future an image unpacked from it.
    static void settle(job& j, std::shared_ptr<const raw_image> img);
    static void settle(job& j, std::exception_ptr err);
    job_ptr make_job(std::vector<std::uint8_t>&& bytes, const decode_options& opt);
    /// Admission core shared by every submit flavour: queue push, eviction /
    /// rejection settling, metrics and spans.  Returns true when the job was
    /// enqueued and therefore needs pump capacity.
    bool admit(job_ptr j);
    /// Hand the pool one pump able to pop-and-run up to `n` queued jobs.
    void pump(std::size_t n);
    /// The one job path: backend lookup, capability gate, decode or layer
    /// stream, and a single success or failure settle.
    void run_job(job& j);
    /// One-shot decode through the codec's backend, fed to the stage counters.
    j2k::image decode_one(const job& j, const codec::backend& be);
    /// Through the cache: hits and collapsed waits share the resident result;
    /// a miss leads the single flight, packs and publishes its decode and
    /// hands the job's bytes to the entry.  Null when the key is taken by
    /// other bytes — the caller then decodes uncached.
    std::shared_ptr<const raw_image> decode_cached(job& j, const codec::backend& be);
    /// Input bytes as the cache keeps them (decoded_cache::input_ptr).
    using input_ptr = std::shared_ptr<const std::vector<std::uint8_t>>;
    /// The job's bytes as a buffer the cache can keep: an owned vector is
    /// moved, so its storage (which `j.bytes` views) stays where it is; a
    /// borrowed span is copied.
    static input_ptr share_bytes(job& j);
    /// Layered j2k flight leader over `input`: resume the cached session
    /// prefix when one fits, else decode cold; the advanced prefix goes back
    /// to the cache.
    j2k::image decode_prefix(const cache_key& key, const input_ptr& input);
    /// Advance a session over `threads` tiles at a time, feeding the tier-1
    /// byte, stage and tile counters.
    j2k::image advance(j2k::decode_session& s, int layers, int threads);
    /// Progressive job: one session on this worker, one on_layer per layer.
    void stream_layers(job& j);
    /// Destroy a settled job, then take it out of the in-flight count.
    void retire(job_ptr j);
    void record_priority_depths();

    service_config cfg_;
    service_metrics metrics_;

    mutable std::mutex drain_m_;
    std::condition_variable drained_cv_;
    std::size_t in_flight_ = 0;  ///< admitted but not yet completed/failed
    bool stopped_ = false;

    two_level_queue<job_ptr> queue_;
    std::unique_ptr<raw_image_cache> cache_;  ///< null when cache_bytes == 0
    std::unique_ptr<thread_pool> pool_;  ///< last member: destroyed (joined) first
};

}  // namespace runtime
