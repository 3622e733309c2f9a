// Bump allocator (runtime/arena.hpp): alignment and cursor arithmetic, the
// typed no-throw exhaustion contract, poison-fill on reset, heap fallback
// accounting, pmr container integration, and concurrent allocation
// (exercised under TSan in CI).
#include <runtime/arena.hpp>
#include <runtime/metrics.hpp>

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>
#include <vector>

namespace {

using runtime::arena;
using runtime::arena_errc;

/// This process's resident set (VmRSS) in bytes; 0 without /proc.
std::int64_t rss_bytes()
{
    return static_cast<std::int64_t>(runtime::read_process_memory().resident_bytes);
}

TEST(Arena, AllocationsAreAlignedAndDisjoint)
{
    arena a{4096};
    std::mt19937 rng{20260808};
    std::vector<std::pair<std::byte*, std::size_t>> blocks;
    for (int i = 0; i < 64; ++i) {
        const std::size_t align = std::size_t{1} << (rng() % 7);  // 1..64
        const std::size_t bytes = 1 + rng() % 48;
        arena_errc err{};
        void* p = a.try_alloc(bytes, align, &err);
        if (!p) {
            EXPECT_EQ(err, arena_errc::exhausted);
            break;
        }
        EXPECT_EQ(err, arena_errc::none);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
        EXPECT_TRUE(a.owns(p));
        for (const auto& [q, n] : blocks) {
            const auto* b = static_cast<std::byte*>(p);
            EXPECT_TRUE(b + bytes <= q || q + n <= b)
                << "allocation overlaps an earlier one";
        }
        blocks.emplace_back(static_cast<std::byte*>(p), bytes);
    }
    EXPECT_GE(blocks.size(), 32u);
}

TEST(Arena, PagesAreCommittedOnFirstUseNotAtConstruction)
{
    // An arena that is built but not yet used must cost address space, not
    // memory.
    const std::int64_t before = rss_bytes();
    if (before == 0) GTEST_SKIP() << "no /proc/self/status";
    constexpr std::int64_t cap = 64 << 20;
    arena a{static_cast<std::size_t>(cap)};
    const std::int64_t built = rss_bytes();
    EXPECT_LT(built - before, cap / 4);

    constexpr std::int64_t touch = 1 << 20;
    void* p = a.try_alloc(static_cast<std::size_t>(touch), 64);
    ASSERT_NE(p, nullptr);
    std::memset(p, 1, static_cast<std::size_t>(touch));
    // The touched pages are committed, and not the rest of the block (the
    // upper bound leaves room for a sanitizer's shadow of the touched range).
    const std::int64_t grown = rss_bytes() - built;
    EXPECT_GE(grown, touch * 3 / 4);
    EXPECT_LT(grown, cap / 4);
}

TEST(Arena, ExhaustionReportsTypedErrorWithoutThrowing)
{
    arena a{256};
    arena_errc err{};
    EXPECT_NE(a.try_alloc(200, 8, &err), nullptr);
    EXPECT_EQ(err, arena_errc::none);
    // Over capacity: null + typed error, never a throw.
    EXPECT_EQ(a.try_alloc(200, 8, &err), nullptr);
    EXPECT_EQ(err, arena_errc::exhausted);
    // A request bigger than the whole arena, including on a fresh one.
    arena b{64};
    EXPECT_EQ(b.try_alloc(65, 1, &err), nullptr);
    EXPECT_EQ(err, arena_errc::exhausted);
}

TEST(Arena, BadAlignmentIsATypedErrorNotUb)
{
    arena a{256};
    arena_errc err{};
    EXPECT_EQ(a.try_alloc(8, 0, &err), nullptr);
    EXPECT_EQ(err, arena_errc::bad_alignment);
    EXPECT_EQ(a.try_alloc(8, 3, &err), nullptr);
    EXPECT_EQ(err, arena_errc::bad_alignment);
    EXPECT_EQ(a.used(), 0u);
}

TEST(Arena, HighWaterTracksLifetimeMaximumAcrossResets)
{
    // Sizes are multiples of the alignment so no padding perturbs the marks.
    arena a{1024};
    ASSERT_NE(a.try_alloc(704, 8), nullptr);
    EXPECT_EQ(a.high_water(), 704u);
    a.reset();
    EXPECT_EQ(a.used(), 0u);
    ASSERT_NE(a.try_alloc(96, 8), nullptr);
    EXPECT_EQ(a.high_water(), 704u) << "reset must not lower the high-water mark";
    ASSERT_NE(a.try_alloc(800, 8), nullptr);
    EXPECT_EQ(a.high_water(), 896u);
}

TEST(Arena, ResetPoisonsTheUsedPrefixWhenEnabled)
{
    arena a{512};
    a.set_poison(true);  // force on: NDEBUG builds default to off
    auto* p = static_cast<std::byte*>(a.try_alloc(128, 1));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x42, 128);
    a.reset();
    for (int i = 0; i < 128; ++i)
        ASSERT_EQ(p[i], arena::k_poison) << "stale byte survived reset at " << i;
}

TEST(Arena, ResetWithoutPoisonLeavesBytesButReusesSpace)
{
    arena a{512};
    a.set_poison(false);
    auto* p = static_cast<std::byte*>(a.try_alloc(64, 1));
    ASSERT_NE(p, nullptr);
    a.reset();
    // Same cursor start: the next allocation reuses the block from offset 0.
    auto* q = static_cast<std::byte*>(a.try_alloc(64, 1));
    EXPECT_EQ(p, q);
}

TEST(Arena, DoAllocateFallsBackToHeapAndCountsIt)
{
    arena a{128};
    EXPECT_EQ(a.fallback_allocs(), 0u);
    // pmr path: a vector that outgrows the arena must keep working (the
    // "never fail a decode" contract) while the spill is counted.
    std::pmr::vector<std::uint8_t> v{&a};
    v.resize(4096);
    EXPECT_GT(a.fallback_allocs(), 0u);
    v.assign(4096, 0x5A);
    for (auto b : v) ASSERT_EQ(b, 0x5A);
    v.clear();
    v.shrink_to_fit();  // deallocate of a non-owned pointer routes upstream
}

TEST(Arena, PmrVectorsInsideCapacityNeverTouchTheHeap)
{
    arena a{1u << 16};
    std::pmr::vector<std::int32_t> v{&a};
    v.reserve(1000);
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_EQ(a.fallback_allocs(), 0u);
    EXPECT_GT(a.used(), 0u);
    EXPECT_TRUE(a.owns(v.data()));
}

TEST(Arena, ConcurrentAllocationYieldsDisjointChunks)
{
    // One job fans its tiles across the pool and they allocate from the same
    // arena concurrently; each writer fills its chunk with its id and every
    // byte must survive (TSan leg catches ordering bugs, this catches
    // overlap).
    arena a{1u << 20};
    constexpr int k_threads = 8;
    constexpr int k_allocs = 200;
    std::vector<std::thread> ts;
    std::vector<std::vector<std::byte*>> ptrs(k_threads);
    for (int t = 0; t < k_threads; ++t) {
        ts.emplace_back([&a, &ptrs, t] {
            for (int i = 0; i < k_allocs; ++i) {
                auto* p = static_cast<std::byte*>(a.try_alloc(64, 8));
                if (!p) break;
                std::memset(p, t + 1, 64);
                ptrs[static_cast<std::size_t>(t)].push_back(p);
            }
        });
    }
    for (auto& th : ts) th.join();
    for (int t = 0; t < k_threads; ++t)
        for (auto* p : ptrs[static_cast<std::size_t>(t)])
            for (int i = 0; i < 64; ++i)
                ASSERT_EQ(std::to_integer<int>(p[i]), t + 1);
}

}  // namespace
