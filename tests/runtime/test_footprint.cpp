// Heap footprint of the decode service, counted by a replaced global
// operator new/delete: what an idle service holds, how far a progressive
// job's live heap rises above what outlives it, what a cached entry costs,
// and what a hostile header costs before it is refused.  Decode scratch comes
// from the heap and is freed as each stage ends, so the progressive peak is
// one image, the session's persistent block state and the job's own
// codestream, plus a few per-tile buffers; it does not grow with the number
// of layers.  A separate binary, because the replacement is process-wide.
#include <runtime/cache/decoded_cache.hpp>
#include <runtime/service.hpp>

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

void* counted(void* p)
{
    if (p == nullptr) throw std::bad_alloc{};
    const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
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

    decode_service svc{{.workers = 2}};  // no cache: the session ends with the job
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
        (void)svc.submit(streams[0], {.cache = runtime::cache_policy::bypass}).get();
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

/// A bare j2k main header declaring 16384×16384×1 (2^28 samples, the cap) in
/// one tile, then zero-length payloads: the tile length of a plain stream, or
/// a `layers`-entry chunk directory.  39 bytes plain, 43 with two layers.
std::vector<std::uint8_t> j2k_header_without_blocks(int layers)
{
    j2k::stream_info info;
    info.width = info.height = 16384;
    info.components = 1;
    info.tile_width = info.tile_height = 16384;
    info.levels = 5;
    info.quality_layers = layers;
    j2k::byte_writer w;
    j2k::write_header(w, info);
    for (int l = 0; l < layers; ++l) w.u32(0);
    return w.take();
}

/// Decodes `cs` through the registered backend (the service's one-shot
/// path) and expects a codestream_error under 16 MiB of counted peak.
void expect_refused_up_front(const std::vector<std::uint8_t>& cs)
{
    const codec::backend& be = j2k::ensure_backend_registered();
    reset_peak();
    const std::int64_t base = live();
    const auto t0 = std::chrono::steady_clock::now();
    try {
        (void)be.decode(cs, {}, nullptr);
        ADD_FAILURE() << "a stream without code-blocks decoded";
    } catch (const codec::codestream_error& e) {
        std::printf("refused: %s\n", e.what());
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    const std::int64_t peak = g_peak.load(std::memory_order_relaxed) - base;
    EXPECT_LT(peak, std::int64_t{16} << 20) << "peak " << peak << " B";
    std::printf("%zu-byte stream refused in %lld us, peak %lld B\n", cs.size(),
                static_cast<long long>(us), static_cast<long long>(peak));
}

TEST(Footprint, J2kTilePayloadShorterThanItsCodeblocksIsRefusedUpFront)
{
    // Every code-block costs at least 5 payload bytes (a plane count and a
    // length), so a zero-length payload cannot hold the 2^18 blocks of this
    // tile; it must be refused before the tile's planes are sized, not after
    // allocating 2 GiB of them.
    const auto cs = j2k_header_without_blocks(1);
    ASSERT_EQ(cs.size(), 39u);
    expect_refused_up_front(cs);
}

TEST(Footprint, J2kLayerChunksShorterThanTheirCodeblocksAreRefusedUpFront)
{
    // The layered variant: layer 0 costs 6 bytes per block, later layers 5.
    const auto cs = j2k_header_without_blocks(2);
    ASSERT_EQ(cs.size(), 43u);
    expect_refused_up_front(cs);
}

}  // namespace
