// Per-job bump allocator + pool (runtime/arena.hpp): alignment and cursor
// arithmetic, the typed no-throw exhaustion contract, poison-fill on reset,
// heap fallback accounting, pmr container integration, and the concurrent
// lease discipline the decode service relies on (exercised under TSan in CI).
#include <runtime/arena.hpp>

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace {

using runtime::arena;
using runtime::arena_errc;
using runtime::arena_pool;

/// This process's resident set (VmRSS) in bytes; 0 without /proc.
std::int64_t rss_bytes()
{
    std::ifstream in{"/proc/self/status"};
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6)) * 1024;
    return 0;
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
    // Each service worker owns an arena from start-up; an idle one must cost
    // address space, not memory.
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

TEST(ArenaPool, LeaseReturnsResetArenaToThePool)
{
    arena_pool pool{2, 4096};
    arena* first = nullptr;
    {
        auto l = pool.acquire();
        ASSERT_TRUE(l);
        first = l.get();
        l.get()->set_poison(true);
        ASSERT_NE(l.resource()->allocate(100, 8), nullptr);
        EXPECT_EQ(l.get()->used(), 100u);
    }
    // Returned and reset; a fresh acquire can see an empty arena again.
    auto l2 = pool.acquire();
    auto l3 = pool.acquire();
    ASSERT_TRUE(l2);
    ASSERT_TRUE(l3);
    arena* back = l2.get() == first ? l2.get() : l3.get();
    EXPECT_EQ(back, first);
    EXPECT_EQ(back->used(), 0u);
}

TEST(ArenaPool, DryPoolYieldsEmptyLeaseAndCountsIt)
{
    arena_pool pool{1, 1024};
    auto l1 = pool.acquire();
    ASSERT_TRUE(l1);
    auto l2 = pool.acquire();  // dry: never blocks
    EXPECT_FALSE(l2);
    EXPECT_EQ(l2.resource(), nullptr) << "empty lease degrades the job to heap";
    EXPECT_EQ(pool.dry_acquires(), 1u);
    EXPECT_EQ(pool.leases(), 2u);
}

TEST(ArenaPool, AggregatesPerArenaStats)
{
    arena_pool pool{2, 512};
    {
        auto l = pool.acquire();
        ASSERT_TRUE(l);
        ASSERT_NE(l.get()->try_alloc(300, 8), nullptr);
        // Spill past capacity through the pmr interface.
        void* p = l.resource()->allocate(1024, 8);
        ASSERT_NE(p, nullptr);
        l.resource()->deallocate(p, 1024, 8);
    }
    EXPECT_EQ(pool.high_water(), 300u);
    EXPECT_GE(pool.fallback_allocs(), 1u);
}

TEST(ArenaPool, ConcurrentAcquireReleaseKeepsEveryArenaSingleOwner)
{
    // The service's steady state: jobs acquire, allocate, release in parallel.
    // Each lease writes a thread-unique pattern and verifies it before
    // returning the arena — overlap between two live leases would corrupt it.
    arena_pool pool{4, 1u << 16};
    constexpr int k_threads = 8;
    constexpr int k_iters = 100;
    std::vector<std::thread> ts;
    for (int t = 0; t < k_threads; ++t) {
        ts.emplace_back([&pool, t] {
            for (int i = 0; i < k_iters; ++i) {
                auto l = pool.acquire();
                if (!l) continue;  // dry is legal under oversubscription
                auto* p = static_cast<std::byte*>(l.get()->try_alloc(256, 8));
                if (!p) continue;
                std::memset(p, t + 1, 256);
                for (int k = 0; k < 256; ++k)
                    ASSERT_EQ(std::to_integer<int>(p[k]), t + 1);
            }
        });
    }
    for (auto& th : ts) th.join();
    EXPECT_EQ(pool.leases(), static_cast<std::uint64_t>(k_threads) * k_iters);
}

TEST(ArenaPool, MoveOnlyLeaseTransfersOwnership)
{
    arena_pool pool{1, 1024};
    auto l1 = pool.acquire();
    ASSERT_TRUE(l1);
    auto l2 = std::move(l1);
    EXPECT_FALSE(l1);  // NOLINT(bugprone-use-after-move): post-move state is specified
    ASSERT_TRUE(l2);
    l2 = arena_pool::lease{};  // release through move-assignment
    auto l3 = pool.acquire();
    EXPECT_TRUE(l3) << "arena must be back in the pool after the move chain";
}

}  // namespace
