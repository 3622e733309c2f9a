// Heap footprint of the decode service, counted by a replaced global
// operator new/delete: what an idle service holds, and how far a progressive
// job's live heap rises above what outlives it.  Decode scratch comes from
// the heap and is freed as each stage ends, so that peak is one image, the
// session's persistent block state and the job's own codestream, plus a few
// per-tile buffers; it does not grow with the number of layers.  A separate
// binary, because the replacement is process-wide.
#include <runtime/service.hpp>

#include <j2k/j2k.hpp>
#include <j2k/session.hpp>

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
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

}  // namespace
