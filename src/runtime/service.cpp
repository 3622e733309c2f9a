#include "service.hpp"

#include "cache/decoded_cache.hpp"
#include "hash.hpp"

#include <ccsds/ccsds123.hpp>
#include <codec/backend.hpp>
#include <j2k/backend.hpp>
#include <j2k/image.hpp>
#include <j2k/session.hpp>
#include <obs/obs.hpp>

#include <algorithm>
#include <string>
#include <utility>

namespace runtime {

namespace {

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Pack a result into the wire layout, once.  The int32 image is freed before
/// this returns, so whoever receives the packed copy never holds both.
std::shared_ptr<const raw_image> pack(j2k::image&& img)
{
    const j2k::image dying{std::move(img)};
    return std::make_shared<const raw_image>(dying);
}

}  // namespace

decode_service::decode_service(service_config cfg)
    : cfg_{cfg},
      queue_{cfg.queue_capacity,
             cfg.policy,
             cfg.promote_after,
             level_capacities{cfg.interactive_capacity, cfg.batch_capacity}},
      cache_{cfg.cache_bytes > 0 ? std::make_unique<raw_image_cache>(cfg.cache_bytes)
                                 : nullptr},
      pool_{std::make_unique<thread_pool>(cfg.workers)}
{
    // The serving layer guarantees the built-in codecs are registered before
    // any job can name them (idempotent; static-init order plays no part).
    j2k::ensure_backend_registered();
    ccsds::ensure_backend_registered();
}

decode_service::~decode_service()
{
    shutdown();
}

void decode_service::settle(job& j, j2k::image&& img)
{
    if (j.settled.exchange(true, std::memory_order_acq_rel)) return;
    if (j.done)
        j.done(pack(std::move(img)), nullptr);
    else
        j.promise.set_value(std::move(img));
}

void decode_service::settle(job& j, std::shared_ptr<const raw_image> img)
{
    if (j.settled.exchange(true, std::memory_order_acq_rel)) return;
    if (j.done)
        j.done(std::move(img), nullptr);
    else
        j.promise.set_value(img->unpack());  // a future owns its image
}

void decode_service::settle(job& j, std::exception_ptr err)
{
    if (j.settled.exchange(true, std::memory_order_acq_rel)) return;
    if (j.on_layer)
        j.on_layer(layer_event{}, std::move(err));
    else if (j.done)
        j.done(nullptr, std::move(err));
    else
        j.promise.set_exception(std::move(err));
}

void decode_service::record_priority_depths()
{
    OBS_TRACE_COUNTER("runtime", "queue_depth_interactive",
                      queue_.size(priority::interactive));
    OBS_TRACE_COUNTER("runtime", "queue_depth_batch", queue_.size(priority::batch));
}

std::future<j2k::image> decode_service::submit(std::span<const std::uint8_t> cs,
                                               const decode_options& opt)
{
    OBS_TRACE_SCOPE("runtime", "submit");
    auto j = std::make_unique<job>();
    j->opt = opt;
    j->submitted_at = std::chrono::steady_clock::now();
    if (cfg_.copy_input) {
        j->owned.assign(cs.begin(), cs.end());
        j->bytes = j->owned;
    } else {
        j->bytes = cs;
    }
    auto fut = j->promise.get_future();
    if (admit(std::move(j))) pump(1);
    return fut;
}

std::future<j2k::image> decode_service::submit(std::vector<std::uint8_t>&& bytes,
                                               const decode_options& opt)
{
    OBS_TRACE_SCOPE("runtime", "submit");
    auto j = make_job(std::move(bytes), opt);
    auto fut = j->promise.get_future();
    if (admit(std::move(j))) pump(1);
    return fut;
}

void decode_service::submit_async(std::vector<std::uint8_t>&& bytes,
                                  const decode_options& opt, completion done)
{
    OBS_TRACE_SCOPE("runtime", "submit");
    auto j = make_job(std::move(bytes), opt);
    j->done = std::move(done);
    if (admit(std::move(j))) pump(1);
}

void decode_service::submit_progressive(std::vector<std::uint8_t>&& bytes,
                                        const decode_options& opt,
                                        progressive_completion on_layer)
{
    OBS_TRACE_SCOPE("runtime", "submit");
    auto j = make_job(std::move(bytes), opt);
    j->on_layer = std::move(on_layer);
    if (admit(std::move(j))) pump(1);
}

std::size_t decode_service::submit_batch(std::vector<batch_item> items)
{
    OBS_TRACE_SCOPE("runtime", "submit_batch");
    std::size_t admitted = 0;
    for (auto& it : items) {
        auto j = make_job(std::move(it.bytes), it.opt);
        j->done = std::move(it.done);
        metrics_.on_batched();
        if (admit(std::move(j))) ++admitted;
    }
    if (admitted > 0) pump(admitted);
    return admitted;
}

decode_service::job_ptr decode_service::make_job(std::vector<std::uint8_t>&& bytes,
                                                 const decode_options& opt)
{
    auto j = std::make_unique<job>();
    j->opt = opt;
    j->submitted_at = std::chrono::steady_clock::now();
    j->owned = std::move(bytes);  // ownership transfer: no copy either way
    j->bytes = j->owned;
    return j;
}

bool decode_service::admit(job_ptr j)
{
    metrics_.on_submitted();
    const decode_options opt = j->opt;

    {
        std::lock_guard lk{drain_m_};
        if (stopped_) {
            metrics_.on_rejected(opt.prio);
            settle(*j, std::make_exception_ptr(service_stopped{}));
            return false;
        }
        ++in_flight_;  // admitted (tentatively); undone on rejection
    }

    // The job span tree: an async "job" span over the whole lifetime
    // (admission → future ready) with a nested async "queue_wait" span, both
    // correlated by trace_id so they survive the submit→worker thread hop.
    j->trace_id = obs::tracer::instance().next_id();
    OBS_TRACE_ASYNC_BEGIN("job", "job", j->trace_id);
    OBS_TRACE_ASYNC_BEGIN("job", "queue_wait", j->trace_id);
    [[maybe_unused]] const std::uint64_t id = j->trace_id;

    job_ptr evicted;
    priority evicted_prio = opt.prio;
    const push_result r = queue_.push(std::move(j), opt.prio, &evicted, &evicted_prio);
    OBS_TRACE_COUNTER("runtime", "queue_depth", queue_.size());
    record_priority_depths();
    switch (r) {
    case push_result::dropped:
        // Charge the drop to the priority actually evicted — with per-level
        // capacities the victim's class can differ from the pusher's.
        metrics_.on_dropped(evicted_prio);
        OBS_TRACE_INSTANT("runtime", "job_dropped");
        OBS_TRACE_ASYNC_END("job", "queue_wait", evicted->trace_id);
        OBS_TRACE_ASYNC_END("job", "job", evicted->trace_id);
        settle(*evicted, std::make_exception_ptr(job_dropped{}));
        retire(std::move(evicted));  // the evicted job leaves the in-flight set
        return true;
    case push_result::ok:
        return true;
    case push_result::rejected:
        metrics_.on_rejected(opt.prio);
        OBS_TRACE_INSTANT("runtime", "job_rejected");
        OBS_TRACE_ASYNC_END("job", "queue_wait", id);
        OBS_TRACE_ASYNC_END("job", "job", id);
        settle(*j, std::make_exception_ptr(admission_rejected{}));
        retire(std::move(j));
        return false;
    case push_result::closed:
        metrics_.on_rejected(opt.prio);
        OBS_TRACE_ASYNC_END("job", "queue_wait", id);
        OBS_TRACE_ASYNC_END("job", "job", id);
        settle(*j, std::make_exception_ptr(service_stopped{}));
        retire(std::move(j));
        return false;
    }
    return false;  // unreachable
}

void decode_service::pump(std::size_t n)
{
    // One pump may pop-and-run up to `n` jobs; a plain submit passes n = 1, a
    // coalesced batch passes its size, so a burst of small jobs costs one pool
    // submission.  Extra pump capacity left behind by evictions finds an empty
    // queue and returns — the invariant is pump capacity >= queued jobs.
    //
    // Pumps are *root* tasks: a popped job can park on a single-flight cache
    // entry, so one must never start from a parallel_for helping loop — the
    // flight's leader is below that loop on the same stack, and a nested
    // waiter there deadlocks the pool.
    metrics_.on_pool_submission();
    pool_->submit_root([this, n] {
        for (std::size_t i = 0; i < n; ++i) {
            auto popped = queue_.try_pop();
            if (!popped) break;
            job_ptr& p = popped->item;
            if (popped->promoted) OBS_TRACE_INSTANT("runtime", "job_promoted");
            OBS_TRACE_ASYNC_END("job", "queue_wait", p->trace_id);
            OBS_TRACE_COUNTER("runtime", "queue_depth", queue_.size());
            record_priority_depths();
            run_job(*p);
            retire(std::move(p));
        }
    });
}

void decode_service::retire(job_ptr j)
{
    // Tear the job down first (its promise, completion and any shared image
    // it still holds), so in_flight() == 0 leaves nothing for a worker to do.
    j.reset();
    {
        std::lock_guard lk{drain_m_};
        --in_flight_;
    }
    drained_cv_.notify_all();
}

void decode_service::run_job(job& j)
{
    OBS_TRACE_SCOPE("runtime", j.on_layer ? "progressive_job" : "decode_job");
    const std::uint8_t id = j.opt.codec;
    j2k::image img;
    std::shared_ptr<const raw_image> packed;
    std::exception_ptr err;
    bool unsupported = false;
    try {
        const codec::backend* be = codec::find_backend(id);
        if (be == nullptr) throw unsupported_codec{id};
        // Capability gate: flags the codec cannot honour are a typed
        // rejection (same status as an unknown id on the wire), not a
        // silently ignored knob and not a generic decode failure.
        const codec::capabilities caps = be->caps();
        if (j.on_layer && !caps.progressive)
            throw unsupported_codec{id, "does not support progressive refinement"};
        if (j.opt.discard_levels > 0 && !caps.resolution_reduction)
            throw unsupported_codec{id, "does not support resolution reduction"};
        if (j.opt.max_quality_layers > 0 && !caps.quality_layers)
            throw unsupported_codec{id, "does not support quality-layer caps"};
        if (j.opt.max_passes > 0 && !caps.pass_cap)
            throw unsupported_codec{id, "does not support pass caps"};

        if (j.on_layer) {
            stream_layers(j);
        } else {
            if (cache_ && j.opt.cache != cache_policy::bypass)
                packed = decode_cached(j, *be);
            // Bypass, or bytes that mismatch the resident key: uncached.
            if (!packed) img = decode_one(j, *be);
        }
    } catch (const unsupported_codec&) {
        err = std::current_exception();
        unsupported = true;
    } catch (...) {
        err = std::current_exception();
    }

    if (err) {
        metrics_.on_failed();
        if (unsupported) {
            metrics_.on_codec_unsupported(id);
            OBS_TRACE_INSTANT("runtime", "job_unsupported_codec");
        } else {
            metrics_.on_codec_failed(id);
            OBS_TRACE_INSTANT("runtime", "job_failed");
        }
        settle(j, std::move(err));  // progressive jobs: routed through on_layer
    } else {
        metrics_.record_latency_us(
            j.opt.prio,
            ns_between(j.submitted_at, std::chrono::steady_clock::now()) / 1000);
        metrics_.on_completed();
        metrics_.on_codec_completed(id);
        if (j.on_layer)
            j.settled.store(true, std::memory_order_release);  // all layers delivered
        else if (packed)
            settle(j, std::move(packed));
        else
            settle(j, std::move(img));
    }
    OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
}

j2k::image decode_service::decode_one(const job& j, const codec::backend& be)
{
    const codec::decode_request req{j.opt.discard_levels, j.opt.max_quality_layers,
                                    j.opt.max_passes};
    codec::stage_profile prof;
    j2k::image img = be.decode(j.bytes, req, &prof);
    metrics_.add_stages(prof);
    return img;
}

std::shared_ptr<const raw_image> decode_service::decode_cached(job& j,
                                                               const codec::backend& be)
{
    cache_key key;
    key.content_hash = seeded_hash(j.bytes);
    key.codec = j.opt.codec;  // namespaced: byte-identical input under another
                              // codec id is a different key
    key.layers = j.opt.max_quality_layers;
    key.discard_levels = j.opt.discard_levels;
    key.max_passes = j.opt.max_passes;
    // j2k, the one progressive codec, keys layered streams by normalised
    // depth: "all layers" requests (0 or >= stream depth) share one entry
    // with explicit full-depth requests.
    int stream_layers = 0;
    if (be.caps().progressive) {
        stream_layers = j2k::read_header(j.bytes).quality_layers;
        if (key.layers <= 0 || key.layers >= stream_layers) key.layers = stream_layers;
    }

    if (auto r = cache_->begin_flight(key, j.bytes)) {
        if (r->error) std::rethrow_exception(r->error);
        return std::move(r->image);  // null on a mismatch
    }
    // This worker leads the flight: decode inline (never waiting on another
    // job, so a leader always makes progress), pack and publish.  Layered
    // full-quality requests go through a resumable session so the tier-1
    // prefix can be cached and extended.  The entry keeps the job's bytes;
    // `input` holds them from here on, at the address `j.bytes` and the
    // flight's joiners read.
    const input_ptr input = share_bytes(j);
    try {
        const bool resumable =
            stream_layers > 1 && key.discard_levels == 0 && key.max_passes == 0;
        auto packed = pack(resumable ? decode_prefix(key, input) : decode_one(j, be));
        cache_->complete_flight(key, packed, input, j.opt.cache == cache_policy::pin);
        j.bytes = {};
        return packed;
    } catch (...) {
        cache_->abort_flight(key, std::current_exception());
        j.bytes = {};
        throw;
    }
}

decode_service::input_ptr decode_service::share_bytes(job& j)
{
    using buffer = const std::vector<std::uint8_t>;
    if (j.owns_bytes()) return std::make_shared<buffer>(std::move(j.owned));
    return std::make_shared<buffer>(j.bytes.begin(), j.bytes.end());
}

j2k::image decode_service::decode_prefix(const cache_key& key, const input_ptr& input)
{
    if (auto lease = cache_->checkout_session(key.content_hash, *input, key.layers)) {
        try {
            j2k::image img = advance(lease->session, key.layers, pool_->size());
            cache_->deposit_session(key.content_hash, std::move(lease->bytes),
                                    std::move(lease->session));
            return img;
        } catch (...) {
            cache_->discard_session(key.content_hash);  // poisoned: never return it
            throw;
        }
    }
    // The prefix and the image entry keep one buffer between them.
    j2k::decode_session s{*input};
    j2k::image img = advance(s, key.layers, pool_->size());
    cache_->deposit_session(key.content_hash, input, std::move(s));
    return img;
}

j2k::image decode_service::advance(j2k::decode_session& s, int layers, int threads)
{
    codec::stage_profile prof;
    const std::uint64_t before = s.tier1_segment_bytes();
    s.set_threads(threads);
    j2k::image img = s.advance_to(layers, nullptr, &prof);
    metrics_.add_t1_segment_bytes(s.tier1_segment_bytes() - before);
    metrics_.add_stages(prof);
    return img;
}

void decode_service::stream_layers(job& j)
{
    metrics_.on_progressive_started();
    OBS_TRACE_COUNTER("runtime", "progressive_active", metrics_.progressive_active());
    try {
        j2k::decode_session s{j.bytes};
        const int stream_layers = s.total_layers();
        const int cap = j.opt.max_quality_layers;
        const int total = cap > 0 && cap < stream_layers ? cap : stream_layers;
        for (int l = 1; l <= total; ++l) {
            // Per-refinement async span under the job's span tree; the j2k
            // stage spans (tier-1 / IQ / IDWT) nest inside it.
            OBS_TRACE_ASYNC_BEGIN("job", "layer", j.trace_id);
            j2k::image img = advance(s, l, 1);  // on this worker alone
            OBS_TRACE_ASYNC_END("job", "layer", j.trace_id);
            metrics_.on_layer_emitted();
            const bool more = j.on_layer(
                layer_event{l, total, l == total, pack(std::move(img))}, nullptr);
            if (!more && l < total) {
                metrics_.on_progressive_cancelled();
                OBS_TRACE_INSTANT("runtime", "progressive_cancelled");
                break;
            }
        }
        // Even a cancelled stream leaves a valid layer-l prefix; deposit it so
        // later full-quality submits resume instead of decoding cold.  Only
        // a job that owns its bytes may: the session references them, and
        // share_bytes keeps that storage where it is, where a borrowed span
        // (copy_input = false) would be copied away from under it.
        if (cache_ && j.opt.cache != cache_policy::bypass && stream_layers > 1 &&
            j.owns_bytes()) {
            const std::uint64_t hash = seeded_hash(j.bytes);
            cache_->deposit_session(hash, share_bytes(j), std::move(s));
            j.bytes = {};
        }
    } catch (...) {
        metrics_.on_progressive_finished();
        throw;
    }
    metrics_.on_progressive_finished();
}

void decode_service::shutdown()
{
    {
        std::lock_guard lk{drain_m_};
        stopped_ = true;
    }
    queue_.close();  // wakes blocked submitters; queued jobs remain poppable
    std::unique_lock lk{drain_m_};
    drained_cv_.wait(lk, [&] { return in_flight_ == 0; });
}

metrics_snapshot decode_service::metrics() const
{
    metrics_snapshot s = metrics_.snapshot();
    s.uptime_s = process_uptime_s();
    s.pool_threads = pool_->size();
    const process_memory mem = read_process_memory();
    s.resident_bytes = mem.resident_bytes;
    s.resident_peak_bytes = mem.resident_peak_bytes;
    s.tracing_armed = obs::tracing_enabled();
    s.build = build_type();
    s.compiler = compiler_version();
    s.queue_depth_high_water = queue_.high_water();
    s.jobs_promoted = queue_.promoted();
    s.tasks_stolen = pool_->tasks_stolen();
    if (cache_) {
        const cache_stats cs = cache_->stats();
        s.cache_hits = cs.hits;
        s.cache_misses = cs.misses;
        s.cache_collapses = cs.collapses;
        s.cache_mismatches = cs.mismatches;
        s.cache_evictions = cs.evictions;
        s.cache_session_resumes = cs.session_resumes;
        s.cache_bytes = cs.bytes;
        s.cache_pinned_bytes = cs.pinned_bytes;
        s.cache_entries = cs.entries;
        s.cache_session_entries = cs.session_entries;
        // Merge the cache's per-codec split into the job split, resolving
        // wire ids to the same exposition names service_metrics uses.
        for (const auto& bc : cs.by_codec) {
            const std::string name = codec_metric_name(bc.codec);
            auto it = std::find_if(s.by_codec.begin(), s.by_codec.end(),
                                   [&](const auto& e) { return e.name == name; });
            if (it == s.by_codec.end()) {
                metrics_snapshot::codec_entry e;
                e.name = name;
                it = s.by_codec.insert(s.by_codec.end(), std::move(e));
            }
            it->cache_hits = bc.hits;
            it->cache_misses = bc.misses;
        }
    }
    return s;
}

}  // namespace runtime
