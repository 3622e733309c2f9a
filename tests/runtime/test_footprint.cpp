// Heap footprint of the decode service, counted by a replaced global
// operator new/delete: what an idle service holds, how far a progressive
// job's live heap rises above what outlives it (nothing does, cache or not),
// what a cached entry costs, what a hostile header costs before it is
// refused, and what a decode of many tiles allocates in all.  Decode scratch comes from the heap and is
// freed as each stage ends, so the progressive peak is one image, the
// session's persistent block state and the job's own codestream, plus a few
// per-tile buffers; it does not grow with the number of layers.  A separate
// binary, because the replacement is process-wide.
#include <runtime/cache/decoded_cache.hpp>
#include <runtime/service.hpp>

#include "submit_future.hpp"

#include <ccsds/ccsds123.hpp>
#include <codec/backend.hpp>
#include <codec/error.hpp>
#include <j2k/backend.hpp>
#include <j2k/j2k.hpp>
#include <j2k/session.hpp>

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <new>
#include <thread>
#include <vector>

// ---------------------------------------------------------------------------
// Counting allocator.  Sizes come from malloc_usable_size, so unsized deletes
// are charged exactly what their allocation added.

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
std::atomic<std::int64_t> g_total{0};  ///< every byte ever allocated

void* counted(void* p)
{
    if (p == nullptr) throw std::bad_alloc{};
    const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
    g_total.fetch_add(n, std::memory_order_relaxed);
    const std::int64_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
    std::int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (now > peak &&
           !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    return p;
}

void uncounted_free(void* p) noexcept
{
    if (p == nullptr) return;
    g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
    std::free(p);
}

void* aligned(std::size_t n, std::align_val_t a)
{
    // posix_memalign rejects alignments below sizeof(void*); a stricter one
    // is always valid.
    std::size_t align = static_cast<std::size_t>(a);
    if (align < sizeof(void*)) align = sizeof(void*);
    void* p = nullptr;
    return counted(posix_memalign(&p, align, n ? n : 1) == 0 ? p : nullptr);
}

}  // namespace

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new[](std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new(std::size_t n, std::align_val_t a) { return aligned(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return aligned(n, a); }
void operator delete(void* p) noexcept { uncounted_free(p); }
void operator delete[](void* p) noexcept { uncounted_free(p); }
void operator delete(void* p, std::size_t) noexcept { uncounted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { uncounted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { uncounted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { uncounted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    uncounted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    uncounted_free(p);
}

namespace {

using runtime::decode_service;
using runtime::service_config;

std::int64_t live() { return g_live.load(std::memory_order_relaxed); }

/// Restart peak tracking from the current live bytes.
void reset_peak() { g_peak.store(live(), std::memory_order_relaxed); }

void wait_idle(const decode_service& svc)
{
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (svc.in_flight() != 0 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(svc.in_flight(), 0u);
}

TEST(Footprint, IdleServiceHoldsUnderOneMiB)
{
    const std::int64_t before = live();
    auto svc = std::make_unique<decode_service>(service_config{.workers = 2});
    EXPECT_LT(live() - before, std::int64_t{1} << 20);
}

TEST(Footprint, ProgressiveJobPeaksAtOneImagePlusItsSessionForAnyLayerCount)
{
    // The buffers of the one tile in flight (coefficients, dequantised and
    // synthesised planes, transform and tier-1 scratch: four 64×64×3 tiles
    // of samples at most), plus 64 KiB for the session's decoder and grid
    // and the service's bookkeeping for one job.
    constexpr std::int64_t k_tile_bytes = 64 * 64 * 3 * sizeof(std::int32_t);
    constexpr std::int64_t k_slack = 4 * k_tile_bytes + (64 << 10);
    const j2k::image src = j2k::make_test_image(256, 256, 3);
    const auto image_bytes = static_cast<std::int64_t>(
        std::size_t{256} * 256 * 3 * sizeof(std::int32_t));

    decode_service svc{{.workers = 2}};
    for (const int layers : {1, 6}) {
        j2k::codec_params p;
        p.tile_width = 64;  // 16 tiles
        p.tile_height = 64;
        p.quality_layers = layers;
        const std::vector<std::uint8_t> cs = j2k::encode(src, p);

        // The block state a session keeps once every layer is in.
        std::int64_t resident = 0;
        {
            j2k::decode_session s{cs};
            (void)s.advance_to(0);
            resident = static_cast<std::int64_t>(s.resident_bytes());
        }
        EXPECT_EQ(resident > 0, layers > 1);

        std::vector<std::uint8_t> job_bytes = cs;  // the job's own copy
        const auto input_bytes = static_cast<std::int64_t>(job_bytes.capacity());
        std::promise<int> done;
        std::future<int> emitted = done.get_future();
        int seen = 0;
        reset_peak();
        svc.submit_progressive(
            std::move(job_bytes), {},
            [&](decode_service::layer_event&& ev, std::exception_ptr err) {
                ++seen;
                if (err || ev.last) done.set_value(err ? -1 : seen);
                return true;
            });
        ASSERT_EQ(emitted.get(), layers);
        wait_idle(svc);
        const std::int64_t peak = g_peak.load(std::memory_order_relaxed) - live();

        EXPECT_LT(peak, image_bytes + resident + input_bytes + k_slack)
            << layers << " layers: peak " << peak << " B, image " << image_bytes
            << " B, session " << resident << " B, input " << input_bytes << " B";
    }
}

TEST(Footprint, CachedGreyEntriesHoldTheirRawBytesAndInputAndLittleElse)
{
    // A cached result is kept packed in the raw layout: a 64×64 8-bit entry
    // is its 12-byte header and 4096 samples at one byte each, beside the
    // input it was decoded from.  Everything else an entry costs (map and LRU
    // nodes, shared-pointer control blocks) must stay under 1 KiB.  Int32
    // planes would hold 16 KiB per entry on their own.
    constexpr int k_entries = 256;
    constexpr std::int64_t k_raw_bytes = 12 + 64 * 64;
    constexpr std::int64_t k_bookkeeping = 1 << 10;
    std::vector<std::vector<std::uint8_t>> streams;
    for (int i = 0; i < k_entries; ++i)
        streams.push_back(j2k::encode(j2k::make_test_image(64, 64, 1, 8, 1000 + i), {}));

    decode_service svc{{.workers = 2, .cache_bytes = 64u << 20}};
    // Warm every worker's lazily built state with uncached decodes first.
    for (int i = 0; i < 4; ++i)
        (void)test_support::submit(svc, streams[0], {.cache = runtime::cache_policy::bypass})
            .get();
    wait_idle(svc);

    const std::int64_t before = live();
    std::int64_t inputs = 0;
    for (const auto& cs : streams) {
        std::vector<std::uint8_t> job = cs;
        inputs += static_cast<std::int64_t>(job.capacity());
        std::promise<void> done;
        svc.submit_async(std::move(job), {},
                         [&](std::shared_ptr<const runtime::raw_image> img,
                             std::exception_ptr err) {
                             EXPECT_EQ(err, nullptr);
                             EXPECT_NE(img, nullptr);
                             done.set_value();
                         });
        done.get_future().wait();
    }
    wait_idle(svc);
    const std::int64_t held = live() - before;

    const auto st = svc.cache()->stats();
    ASSERT_EQ(st.entries, static_cast<std::uint64_t>(k_entries));
    EXPECT_EQ(st.bytes, static_cast<std::uint64_t>(k_entries * k_raw_bytes + inputs));
    EXPECT_LE(held, k_entries * (k_raw_bytes + k_bookkeeping) + inputs)
        << held / k_entries << " B per entry, inputs " << inputs / k_entries
        << " B per entry";
}

TEST(Footprint, ProgressiveStreamsLeaveNothingInTheCache)
{
    // The serving benchmark's `progressive` shape: eight 256×256×3 streams in
    // 64×64 tiles with 6 quality layers, each streamed twice through a
    // 2-worker service with a 64 MiB cache.  A progressive job's session ends
    // with the job, so the cache stays empty and the heap comes back to where
    // it was, give or take the service's own small bookkeeping.
    constexpr int k_streams = 8;
    constexpr std::int64_t k_slack = 64 << 10;
    j2k::codec_params p;
    p.tile_width = p.tile_height = 64;
    p.quality_layers = 6;
    std::vector<std::vector<std::uint8_t>> streams;
    for (int i = 0; i < k_streams; ++i)
        streams.push_back(j2k::encode(j2k::make_test_image(256, 256, 3, 8, 2000 + i), p));

    decode_service svc{{.workers = 2, .cache_bytes = 64u << 20}};
    const auto stream = [&](const std::vector<std::uint8_t>& cs,
                            runtime::cache_policy policy) {
        std::promise<void> done;
        svc.submit_progressive(
            std::vector<std::uint8_t>{cs}, {.cache = policy},
            [&](decode_service::layer_event&& ev, std::exception_ptr err) {
                EXPECT_EQ(err, nullptr);
                if (err || ev.last) done.set_value();
                return true;
            });
        done.get_future().wait();
    };
    // Warm every worker's lazily built state with uncached streams first.
    for (int i = 0; i < 4; ++i) stream(streams[0], runtime::cache_policy::bypass);
    wait_idle(svc);

    const std::int64_t before = live();
    for (int round = 0; round < 2; ++round)
        for (const auto& cs : streams) stream(cs, runtime::cache_policy::use);
    wait_idle(svc);
    const std::int64_t held = live() - before;

    const std::uint64_t cached = svc.cache()->stats().bytes;
    EXPECT_EQ(cached, 0u);
    EXPECT_LT(held, k_slack) << "live heap grew " << held << " B over 16 streams";
    std::printf("16 streams left %lld B of live heap and %llu B in the cache\n",
                static_cast<long long>(held), static_cast<unsigned long long>(cached));
}

TEST(Footprint, CcsdsHeaderDeclaringMoreSamplesThanItsBitsIsRefusedUpFront)
{
    // A bare 20-byte header declaring 255 bands × 512 × 512 at 16 bits, the
    // 2^26-sample cap.  Every sample costs at least one bit, so a payload of
    // none is truncated; it must be refused before any plane is sized, not
    // after allocating a quarter of a GiB.
    std::vector<std::uint8_t> cs = ccsds::encode(codec::make_test_image(1, 1, 1, 16));
    cs.resize(ccsds::k_header_size);
    const auto put = [&](std::size_t at, std::uint32_t v, int bytes) {
        for (int b = 0; b < bytes; ++b)
            cs[at + static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(v >> (8 * (bytes - 1 - b)));
    };
    put(6, 255, 2);   // bands
    put(8, 512, 4);   // width
    put(12, 512, 4);  // height
    put(16, 16, 1);   // bit depth
    ASSERT_EQ(ccsds::read_header(cs).bands, 255);

    const codec::backend& be = ccsds::ensure_backend_registered();
    reset_peak();
    const std::int64_t base = live();
    const auto t0 = std::chrono::steady_clock::now();
    try {
        (void)be.decode(cs, {}, nullptr);
        ADD_FAILURE() << "an empty payload decoded";
    } catch (const codec::codestream_error& e) {
        EXPECT_NE(std::strstr(e.what(), "truncated codestream"), nullptr) << e.what();
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    const std::int64_t peak = g_peak.load(std::memory_order_relaxed) - base;
    EXPECT_LT(peak, std::int64_t{16} << 20) << "peak " << peak << " B";
    std::printf("refused in %lld us, peak %lld B\n", static_cast<long long>(us),
                static_cast<long long>(peak));
}

/// A bare j2k main header for a size×size single-component image in
/// tile×tile tiles with `layers` quality layers, then `lengths` zero u32
/// lengths.
std::vector<std::uint8_t> j2k_bare_header(int size, int tile, int layers, int lengths)
{
    j2k::stream_info info;
    info.width = info.height = size;
    info.components = 1;
    info.tile_width = info.tile_height = tile;
    info.levels = 5;
    info.quality_layers = layers;
    j2k::byte_writer w;
    j2k::write_header(w, info);
    for (int l = 0; l < lengths; ++l) w.u32(0);
    return w.take();
}

/// Decodes `cs` through the registered backend (the service's one-shot
/// path) and expects a codestream_error in under 10 ms and under 16 MiB of
/// counted peak.
void expect_refused_up_front(const std::vector<std::uint8_t>& cs)
{
    const codec::backend& be = j2k::ensure_backend_registered();
    reset_peak();
    const std::int64_t base = live();
    const auto t0 = std::chrono::steady_clock::now();
    try {
        (void)be.decode(cs, {}, nullptr);
        ADD_FAILURE() << "a stream whose code-blocks do not fit it decoded";
    } catch (const codec::codestream_error& e) {
        std::printf("refused: %s\n", e.what());
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    const std::int64_t peak = g_peak.load(std::memory_order_relaxed) - base;
    EXPECT_LT(peak, std::int64_t{16} << 20) << "peak " << peak << " B";
    EXPECT_LT(us, 10'000) << "refused in " << us << " us";
    std::printf("%zu-byte stream refused in %lld us, peak %lld B\n", cs.size(),
                static_cast<long long>(us), static_cast<long long>(peak));
}

TEST(Footprint, J2kTilePayloadShorterThanItsCodeblocksIsRefusedUpFront)
{
    // A 16384×16384 image (2^28 samples, the cap) in one tile with a
    // zero-length payload.  Every code-block costs at least 5 payload bytes
    // (a plane count and a length), so the payload cannot hold the 2^18
    // blocks of this tile; it must be refused before the tile's planes are
    // sized, not after allocating 2 GiB of them.
    const auto cs = j2k_bare_header(16384, 16384, 1, 1);
    ASSERT_EQ(cs.size(), 39u);
    expect_refused_up_front(cs);
}

TEST(Footprint, J2kLayerChunksShorterThanTheirCodeblocksAreRefusedUpFront)
{
    // The layered variant: layer 0 costs 6 bytes per block, later layers 5.
    const auto cs = j2k_bare_header(16384, 16384, 2, 2);
    ASSERT_EQ(cs.size(), 43u);
    expect_refused_up_front(cs);
}

/// A 4096×4096 single-tile stream, 16384 code-blocks, whose tile payload
/// (each layer chunk, when `layers` > 1) holds exactly its blocks' headers,
/// all zero but for the first block's segment length: the whole payload
/// (chunk), which overruns it by that header's bytes.
std::vector<std::uint8_t> j2k_first_segment_overruns(int layers)
{
    constexpr std::uint32_t k_blocks = (4096 / 32) * (4096 / 32);
    const std::uint32_t header = layers > 1 ? 6 : 5;  // + a pass count when layered
    const auto chunk = [&](int l) { return (l == 0 ? header : 5) * k_blocks; };
    std::vector<std::uint8_t> cs = j2k_bare_header(4096, 4096, layers, 0);
    j2k::byte_writer w;
    for (int l = 0; l < layers; ++l) w.u32(chunk(l));
    const std::size_t first_length = w.size() + header - 4;
    for (int l = 0; l < layers; ++l)
        for (std::uint32_t i = 0; i < chunk(l); ++i) w.u8(0);
    w.patch_u32(first_length, chunk(0));
    const std::vector<std::uint8_t> rest = w.take();
    cs.insert(cs.end(), rest.begin(), rest.end());
    return cs;
}

TEST(Footprint, J2kSegmentOverrunningItsTilePayloadIsRefusedUpFront)
{
    // The block headers fit the payload, but the first block's segment runs
    // past it.  The stream must be refused before the 64 MiB output image
    // and the 64 MiB tile plane are sized, not after.
    const auto cs = j2k_first_segment_overruns(1);
    ASSERT_EQ(cs.size(), 35u + 4 + 5 * 16384);
    expect_refused_up_front(cs);
}

TEST(Footprint, J2kSegmentOverrunningItsLayerChunkIsRefusedUpFront)
{
    // The layered twin: the first block's segment overruns the layer-0 chunk
    // but not the stream (layer 1's chunk follows it).
    const auto cs = j2k_first_segment_overruns(2);
    ASSERT_EQ(cs.size(), 35u + 8 + 11 * 16384);
    expect_refused_up_front(cs);
}

TEST(Footprint, J2kTileDirectoryShorterThanItsTileCountIsRefusedUpFront)
{
    // 1024×1024 in 1×1 tiles, 2^20 of them (the tile cap), and no bytes after
    // the header.  Every tile costs at least its u32 length, so the stream is
    // refused before anything is sized by the tile count, not after building
    // 30 MiB of tile rectangles.
    const auto cs = j2k_bare_header(1024, 1, 1, 0);
    ASSERT_EQ(cs.size(), 35u);
    expect_refused_up_front(cs);
}

TEST(Footprint, J2kLayerDirectoryShorterThanItsTileCountIsRefusedUpFront)
{
    // The layered twin: a directory needs a u32 per chunk (layer × tile).
    const auto cs = j2k_bare_header(1024, 1, 2, 0);
    ASSERT_EQ(cs.size(), 35u);
    expect_refused_up_front(cs);
}

TEST(Footprint, J2kDecodeOfManyTilesAllocatesInProportionToThem)
{
    // A valid 128×128 stream in 1×1 tiles: 16384 tiles, ~11 bytes each.  A
    // tile's rectangle must not cost a walk of the whole grid (16384 of them
    // per tile, 10 GiB allocated in all); the decode allocates a few hundred
    // bytes per tile.
    j2k::codec_params p;
    p.tile_width = p.tile_height = 1;
    const j2k::image src = j2k::make_test_image(128, 128, 1);
    const std::vector<std::uint8_t> cs = j2k::encode(src, p);
    ASSERT_EQ(j2k::read_header(cs).tile_count(), 128 * 128);

    const codec::backend& be = j2k::ensure_backend_registered();
    const std::int64_t before = g_total.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const codec::image img = be.decode(cs, {}, nullptr);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    const std::int64_t total = g_total.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(img == src);
    EXPECT_LT(total, std::int64_t{64} << 20) << "allocated " << total << " B";
    std::printf("%zu-byte stream of 16384 tiles decoded in %lld ms, %lld B allocated\n",
                cs.size(), static_cast<long long>(ms), static_cast<long long>(total));
}

}  // namespace
