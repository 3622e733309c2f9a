// decode_service — determinism vs the serial decoder, decode options,
// priority admission, backpressure accounting, shutdown drain, metrics.
#include <runtime/service.hpp>
#include <runtime/thread_pool.hpp>

#include "submit_future.hpp"

#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

namespace {

using runtime::backpressure;
using runtime::decode_options;
using runtime::decode_service;
using runtime::priority;
using runtime::raw_image;
using runtime::service_config;
using test_support::packed_result;
using test_support::submit;

std::vector<std::uint8_t> make_stream(int w, int h, int comps, int tile,
                                      j2k::wavelet mode = j2k::wavelet::w5_3,
                                      int layers = 1)
{
    const j2k::image img = j2k::make_test_image(w, h, comps);
    j2k::codec_params p;
    p.tile_width = tile;
    p.tile_height = tile;
    p.mode = mode;
    p.quality_layers = layers;
    return j2k::encode(img, p);
}

TEST(DecodeService, MatchesSerialDecodeAcrossGridsAndWorkerCounts)
{
    // 1 tile, 2×2, 4×4 grids × worker counts 1, 2, 8 (more workers than
    // tiles included): the service must be byte-identical to decode_all.
    struct grid_case {
        int w, h, comps, tile;
    };
    for (const auto& g : {grid_case{64, 64, 1, 64},    // single tile
                          grid_case{128, 128, 3, 64},  // 2×2
                          grid_case{256, 256, 3, 64}}) {  // 4×4
        const auto cs = make_stream(g.w, g.h, g.comps, g.tile);
        const j2k::image serial = j2k::decoder{cs}.decode_all();
        for (int workers : {1, 2, 8}) {
            decode_service svc{{.workers = workers}};
            auto fut = submit(svc, cs);
            EXPECT_EQ(fut.get()->unpack(), serial)
                << g.w << "x" << g.h << " tile=" << g.tile << " workers=" << workers;
        }
    }
}

TEST(DecodeService, ParallelDecodeAllMatchesSerialIncludingClampedCounts)
{
    // decode_all_parallel now rides the shared pool; more threads than tiles
    // must clamp rather than misbehave.
    const auto cs = make_stream(128, 128, 3, 64);  // 4 tiles
    j2k::decoder dec{cs};
    const j2k::image serial = dec.decode_all();
    for (int threads : {1, 2, 8, 64, 0})
        EXPECT_EQ(dec.decode_all_parallel(threads), serial) << threads;
    // Single-tile image: any thread count degrades to the serial path.
    const auto one = make_stream(64, 64, 3, 64);
    j2k::decoder dec1{one};
    EXPECT_EQ(dec1.decode_all_parallel(8), dec1.decode_all());
}

TEST(DecodeService, ManyConcurrentJobsAllCorrect)
{
    const auto cs = make_stream(128, 128, 3, 32);  // 16 tiles
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    decode_service svc{{.workers = 4, .queue_capacity = 8}};
    std::vector<std::future<packed_result>> futs;
    for (int i = 0; i < 24; ++i) futs.push_back(submit(svc, cs));
    for (auto& f : futs) EXPECT_EQ(f.get()->unpack(), serial);
    const auto m = svc.metrics();
    EXPECT_EQ(m.jobs_submitted, 24u);
    EXPECT_EQ(m.jobs_completed, 24u);
    EXPECT_EQ(m.jobs_failed, 0u);
    EXPECT_EQ(m.tiles_decoded, 24u * 16u);
    EXPECT_EQ(m.latency_count, 24u);
    EXPECT_GT(m.entropy_ms + m.iq_ms + m.idwt_ms, 0.0);
}

TEST(DecodeService, LossyAndLayeredStreamsMatchSerial)
{
    const auto lossy = make_stream(128, 128, 3, 64, j2k::wavelet::w9_7);
    decode_service svc{{.workers = 4}};
    EXPECT_EQ(submit(svc, lossy).get()->unpack(), j2k::decoder{lossy}.decode_all());
    const auto layered = make_stream(128, 128, 3, 64, j2k::wavelet::w5_3, 3);
    EXPECT_EQ(submit(svc, layered).get()->unpack(), j2k::decoder{layered}.decode_all());
}

TEST(DecodeService, OptionsMatchTheEquivalentDecoderKnobs)
{
    const auto cs = make_stream(128, 128, 3, 64, j2k::wavelet::w5_3, 4);
    decode_service svc{{.workers = 2}};

    j2k::decoder reduced{cs};
    EXPECT_EQ(submit(svc, cs, {.discard_levels = 2}).get()->unpack(),
              reduced.decode_reduced(2));

    j2k::decoder capped{cs};
    capped.set_max_quality_layers(2);
    EXPECT_EQ(submit(svc, cs, {.max_quality_layers = 2}).get()->unpack(),
              capped.decode_all());

    const auto plain = make_stream(128, 128, 3, 64);
    j2k::decoder truncated{plain};
    truncated.set_max_passes(3);
    EXPECT_EQ(submit(svc, plain, {.max_passes = 3}).get()->unpack(),
              truncated.decode_all());
}

TEST(DecodeService, MalformedStreamFailsTheFutureNotTheService)
{
    const auto cs = make_stream(64, 64, 1, 64);
    decode_service svc{{.workers = 2}};
    auto bad = submit(svc, std::vector<std::uint8_t>(64, 0));
    EXPECT_THROW((void)bad.get(), j2k::codestream_error);
    // The service survives and keeps decoding.
    EXPECT_EQ(submit(svc, cs).get()->unpack(), j2k::decoder{cs}.decode_all());
    const auto m = svc.metrics();
    EXPECT_EQ(m.jobs_failed, 1u);
    EXPECT_EQ(m.jobs_completed, 1u);
}

TEST(DecodeService, RejectPolicyAccountsForEveryJob)
{
    const auto cs = make_stream(256, 256, 3, 32);  // 64 tiles: slow enough to pile up
    decode_service svc{
        {.workers = 1, .queue_capacity = 1, .policy = backpressure::reject}};
    constexpr int jobs = 16;
    std::vector<std::future<packed_result>> futs;
    for (int i = 0; i < jobs; ++i) futs.push_back(submit(svc, cs));
    int completed = 0, rejected = 0;
    for (auto& f : futs) {
        try {
            (void)f.get();
            ++completed;
        } catch (const runtime::admission_rejected&) {
            ++rejected;
        }
    }
    EXPECT_EQ(completed + rejected, jobs);
    const auto m = svc.metrics();
    EXPECT_EQ(m.jobs_submitted, static_cast<std::uint64_t>(jobs));
    EXPECT_EQ(m.jobs_completed, static_cast<std::uint64_t>(completed));
    EXPECT_EQ(m.jobs_rejected, static_cast<std::uint64_t>(rejected));
    EXPECT_GE(m.queue_depth_high_water, 1u);
}

TEST(DecodeService, BlockPolicyCompletesEverythingUnderOverload)
{
    const auto cs = make_stream(128, 128, 3, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    decode_service svc{
        {.workers = 2, .queue_capacity = 2, .policy = backpressure::block}};
    std::vector<std::future<packed_result>> futs;
    for (int i = 0; i < 12; ++i) futs.push_back(submit(svc, cs));  // blocks as needed
    for (auto& f : futs) EXPECT_EQ(f.get()->unpack(), serial);
    EXPECT_EQ(svc.metrics().jobs_completed, 12u);
}

TEST(DecodeService, ShutdownDrainsQueuedAndRunningJobs)
{
    const auto cs = make_stream(128, 128, 3, 32);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    decode_service svc{{.workers = 2, .queue_capacity = 32}};
    std::vector<std::future<packed_result>> futs;
    for (int i = 0; i < 10; ++i) futs.push_back(submit(svc, cs));
    svc.shutdown();
    // After shutdown every admitted job has settled, correctly.
    for (auto& f : futs) {
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
        EXPECT_EQ(f.get()->unpack(), serial);
    }
    // New submissions fail fast; shutdown is idempotent.
    EXPECT_THROW((void)submit(svc, cs).get(), runtime::service_stopped);
    svc.shutdown();
}

TEST(DecodeService, DestructorImpliesShutdown)
{
    const auto cs = make_stream(64, 64, 3, 32);
    std::future<packed_result> fut;
    {
        decode_service svc{{.workers = 1}};
        fut = submit(svc, cs);
    }
    EXPECT_EQ(fut.get()->unpack(), j2k::decoder{cs}.decode_all());
}

TEST(DecodeService, InteractiveJobsSeeLowerLatencyThanBatchBacklog)
{
    // One worker, a backlog of batch jobs, then interactive arrivals: the
    // interactive jobs jump the queue, so their latency distribution must sit
    // below the batch one even though they were submitted last.
    const auto cs = make_stream(128, 128, 3, 32);  // 16 tiles
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    decode_service svc{{.workers = 1, .queue_capacity = 64}};
    std::vector<std::future<packed_result>> batch, interactive;
    for (int i = 0; i < 12; ++i) batch.push_back(submit(svc, cs, {.prio = priority::batch}));
    for (int i = 0; i < 3; ++i)
        interactive.push_back(submit(svc, cs, {.prio = priority::interactive}));
    for (auto& f : interactive) EXPECT_EQ(f.get()->unpack(), serial);
    for (auto& f : batch) EXPECT_EQ(f.get()->unpack(), serial);
    const auto m = svc.metrics();
    EXPECT_EQ(m.latency_by_priority[0].count, 3u);
    EXPECT_EQ(m.latency_by_priority[1].count, 12u);
    EXPECT_LT(m.latency_by_priority[0].p50_us, m.latency_by_priority[1].p50_us);
    EXPECT_LT(m.latency_by_priority[0].p99_us, m.latency_by_priority[1].p99_us);
}

TEST(DecodeService, PromotionValveKeepsBatchFlowingUnderInteractiveLoad)
{
    // promote_after = 2 with a long interactive backlog and batch work
    // waiting: the escape valve must deliver batch jobs before the
    // interactive backlog is exhausted, and everything still completes.
    const auto cs = make_stream(128, 128, 3, 32);
    decode_service svc{{.workers = 1, .queue_capacity = 64, .promote_after = 2}};
    std::vector<std::future<packed_result>> futs;
    futs.push_back(submit(svc, cs, {.prio = priority::batch}));  // occupies the worker
    for (int i = 0; i < 4; ++i) futs.push_back(submit(svc, cs, {.prio = priority::batch}));
    for (int i = 0; i < 10; ++i)
        futs.push_back(submit(svc, cs, {.prio = priority::interactive}));
    for (auto& f : futs) EXPECT_NO_THROW((void)f.get());
    const auto m = svc.metrics();
    EXPECT_EQ(m.jobs_completed, 15u);
    EXPECT_GE(m.jobs_promoted, 1u);
}

TEST(DecodeService, CloseWhileSubmittingSettlesEveryFutureExactlyOnce)
{
    // Regression for the close/submit race: a job admitted concurrently with
    // shutdown must be settled exactly once — the helper's second set_value
    // or set_exception would raise std::future_error, and a completion that
    // never ran breaks its promise (std::future_error on get()).  Hammer the
    // window from several submitter threads.
    const auto cs = make_stream(64, 64, 1, 32);
    for (int round = 0; round < 4; ++round) {
        auto svc = std::make_unique<decode_service>(
            service_config{.workers = 2, .queue_capacity = 4});
        constexpr int submitters = 4;
        std::vector<std::vector<std::future<packed_result>>> futs(submitters);
        std::atomic<bool> stop{false};
        // Every submitter is in its loop before shutdown: on a loaded host a
        // sleep alone can end before any of them has run.
        std::latch submitting{submitters};
        std::vector<std::thread> threads;
        for (int t = 0; t < submitters; ++t)
            threads.emplace_back([&, t] {
                bool first = true;
                while (!stop.load(std::memory_order_acquire)) {
                    const auto p = (t % 2 == 0) ? priority::interactive : priority::batch;
                    futs[static_cast<std::size_t>(t)].push_back(
                        submit(*svc, cs, {.prio = p}));
                    if (std::exchange(first, false)) submitting.count_down();
                }
            });
        submitting.wait();
        std::this_thread::sleep_for(std::chrono::milliseconds(5 + 10 * round));
        svc->shutdown();  // races the submit loops
        stop.store(true, std::memory_order_release);
        for (auto& t : threads) t.join();
        svc.reset();  // destructor re-drains; no job may be left unsettled

        int completed = 0, stopped = 0;
        for (auto& per_thread : futs)
            for (auto& f : per_thread) {
                try {
                    (void)f.get();
                    ++completed;
                } catch (const runtime::service_stopped&) {
                    ++stopped;
                } catch (const std::future_error& e) {
                    FAIL() << "future settled " << e.what();
                }
            }
        EXPECT_GT(completed + stopped, 0);
    }
}

TEST(DecodeService, MetricsReportStealsForMultiTileJobs)
{
    // A single 16-tile job on a 4-worker pool: the fan-out is only parallel
    // because idle workers steal tile subtasks, and the snapshot surfaces it.
    const auto cs = make_stream(128, 128, 3, 32);
    decode_service svc{{.workers = 4}};
    for (int i = 0; i < 4; ++i) (void)submit(svc, cs).get();
    const auto m = svc.metrics();
    EXPECT_EQ(m.tiles_decoded, 64u);
    if (std::thread::hardware_concurrency() > 1) {
        EXPECT_GT(m.tasks_stolen, 0u);
    }
}

TEST(DecodeService, LayeredCacheMissFansOutOnTheServicePoolNotTheSharedOne)
{
    // A layered miss decodes through the j2k backend's one-shot session; its
    // tile fan-out must run on the service's own workers (bounded by
    // `workers`, counted in tasks_stolen), never on the process-wide pool.
    const auto cs = make_stream(128, 128, 3, 32, j2k::wavelet::w5_3, 3);  // 16 tiles
    const std::uint64_t before = runtime::thread_pool::shared().tasks_executed();
    decode_service svc{{.workers = 4, .cache_bytes = 16u << 20}};
    EXPECT_EQ(submit(svc, cs).get()->unpack(), j2k::decoder{cs}.decode_all());
    EXPECT_EQ(svc.metrics().cache_misses, 1u);
    EXPECT_EQ(runtime::thread_pool::shared().tasks_executed(), before);
}

TEST(DecodeService, StageAndTileCountersSeeEveryJ2kPath)
{
    // 4-tile, 3-layer stream through the three j2k paths: a layered cache
    // miss (the one-shot full-depth session), a reduced-resolution decode,
    // and a progressive job (tiles counted per layer).
    const auto cs = make_stream(64, 64, 3, 32, j2k::wavelet::w5_3, 3);
    auto expect_counted = [](const runtime::metrics_snapshot& m, std::uint64_t tiles,
                             const char* path) {
        EXPECT_EQ(m.tiles_decoded, tiles) << path;
        EXPECT_GT(m.entropy_ms, 0.0) << path;
        EXPECT_GT(m.iq_ms, 0.0) << path;
        EXPECT_GT(m.idwt_ms, 0.0) << path;
        EXPECT_GT(m.finish_ms, 0.0) << path;
    };
    {
        decode_service svc{{.workers = 2, .cache_bytes = 16u << 20}};
        (void)submit(svc, cs).get();
        expect_counted(svc.metrics(), 4, "layered cache miss");
    }
    {
        decode_service svc{{.workers = 2}};
        (void)submit(svc, cs, {.discard_levels = 1}).get();
        expect_counted(svc.metrics(), 4, "discard_levels = 1");
    }
    {
        decode_service svc{{.workers = 2}};
        std::promise<void> done;
        svc.submit_progressive(std::vector<std::uint8_t>{cs}, {},
                               [&](decode_service::layer_event&& ev, std::exception_ptr) {
                                   if (ev.last) done.set_value();
                                   return true;
                               });
        done.get_future().wait();  // counters are fed before each layer's callback
        expect_counted(svc.metrics(), 3 * 4, "progressive");
    }
}

TEST(DecodeService, MetricsDumpAndJsonContainCounters)
{
    const auto cs = make_stream(64, 64, 1, 32);
    decode_service svc{{.workers = 2}};
    (void)submit(svc, cs).get();
    const auto m = svc.metrics();
    EXPECT_NE(m.dump().find("submitted=1"), std::string::npos);
    EXPECT_NE(m.to_json().find("\"jobs_completed\":1"), std::string::npos);
}

TEST(DecodeService, MoveSubmitTransfersOwnershipWithoutCopy)
{
    auto cs = make_stream(128, 128, 3, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    const std::uint8_t* data = cs.data();
    decode_service svc{{.workers = 2}};
    auto fut = submit(svc, std::move(cs));
    EXPECT_EQ(fut.get()->unpack(), serial);
    // The vector was moved, not copied: the caller's buffer is gone and the
    // job decoded from the very same allocation.
    EXPECT_TRUE(cs.empty());
    (void)data;
}

TEST(DecodeService, SubmitAsyncInvokesCompletionInsteadOfFuture)
{
    auto cs = make_stream(128, 128, 3, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    decode_service svc{{.workers = 2}};
    std::promise<void> done;
    std::shared_ptr<const raw_image> out;
    std::exception_ptr err;
    svc.submit_async(std::move(cs), {},
                     [&](std::shared_ptr<const raw_image> img, std::exception_ptr e) {
                         out = std::move(img);
                         err = e;
                         done.set_value();
                     });
    done.get_future().wait();
    EXPECT_EQ(err, nullptr);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->unpack(), serial);
}

TEST(DecodeService, SubmitAsyncDeliversErrorsThroughTheCallback)
{
    decode_service svc{{.workers = 2}};
    std::promise<std::exception_ptr> got;
    svc.submit_async(std::vector<std::uint8_t>(32, 0), {},
                     [&](std::shared_ptr<const raw_image> img, std::exception_ptr e) {
                         EXPECT_EQ(img, nullptr);
                         got.set_value(e);
                     });
    const auto err = got.get_future().get();
    ASSERT_NE(err, nullptr);
    EXPECT_THROW(std::rethrow_exception(err), j2k::codestream_error);
}

TEST(DecodeService, SubmitBatchUsesOnePoolSubmissionForTheWholeBatch)
{
    // The point of batching: n small jobs admitted together must cost one
    // pool submission (one pump task draining n queue entries), not n.
    const auto cs = make_stream(64, 64, 1, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    decode_service svc{{.workers = 2, .queue_capacity = 16}};
    constexpr std::size_t n = 8;
    std::vector<decode_service::batch_item> items;
    std::vector<std::promise<void>> settled(n);
    std::vector<j2k::image> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        decode_service::batch_item it;
        it.bytes = cs;
        it.done = [&, i](std::shared_ptr<const raw_image> img, std::exception_ptr e) {
            if (!e) out[i] = img->unpack();
            settled[i].set_value();
        };
        items.push_back(std::move(it));
    }
    EXPECT_EQ(svc.submit_batch(std::move(items)), n);
    for (auto& s : settled) s.get_future().wait();
    for (const auto& img : out) EXPECT_EQ(img, serial);
    const auto m = svc.metrics();
    EXPECT_EQ(m.jobs_submitted, n);
    EXPECT_EQ(m.jobs_completed, n);
    EXPECT_EQ(m.jobs_batched, n);
    EXPECT_EQ(m.pool_submissions, 1u);  // would be n without batching
    EXPECT_LT(m.pool_submissions, n);
}

TEST(DecodeService, PerPriorityCapacitiesShedIndependentlyAndAreAccounted)
{
    // batch bounded at 1, interactive unbounded (shared cap applies): a batch
    // flood sheds against its own bound while interactive admission stays
    // open, and the shed shows up in the per-priority counters and JSON.
    const auto cs = make_stream(256, 256, 3, 32);  // slow: piles up
    decode_service svc{{.workers = 1,
                        .queue_capacity = 32,
                        .batch_capacity = 1,
                        .policy = backpressure::reject}};
    std::vector<std::future<packed_result>> batch, interactive;
    for (int i = 0; i < 6; ++i) batch.push_back(submit(svc, cs, {.prio = priority::batch}));
    for (int i = 0; i < 3; ++i)
        interactive.push_back(submit(svc, cs, {.prio = priority::interactive}));
    for (auto& f : interactive) EXPECT_NO_THROW((void)f.get());
    int rejected = 0;
    for (auto& f : batch) {
        try {
            (void)f.get();
        } catch (const runtime::admission_rejected&) {
            ++rejected;
        }
    }
    EXPECT_GE(rejected, 1);  // 6 rapid batch submits into bound 1 must shed
    const auto m = svc.metrics();
    EXPECT_EQ(m.shed_by_priority[1].rejected, static_cast<std::uint64_t>(rejected));
    EXPECT_EQ(m.shed_by_priority[0].rejected, 0u);
    EXPECT_EQ(m.jobs_rejected, static_cast<std::uint64_t>(rejected));
    EXPECT_NE(m.to_json().find("\"shed_batch\""), std::string::npos);
    EXPECT_NE(m.dump().find("shed_batch: rejected=" + std::to_string(rejected)),
              std::string::npos);
}

}  // namespace
