// runtime/arena.hpp — per-job bump allocator + bounded arena pool.
//
// Steady-state serving should do zero malloc on the decode hot path: every
// transient buffer a job needs (tier-1 block state, DWT scratch, gather
// buffers) comes from one pre-sized arena leased for the job's lifetime and
// reset on return.  The shape follows the tjdec idiom (SNIPPETS.md §3): one
// caller-supplied pool, a monotonic cursor, no per-allocation bookkeeping.
//
//   decode_service ──owns──► arena_pool (one arena per worker)
//        │ per job                 │ acquire()/RAII release
//        ▼                         ▼
//   arena_pool::lease ──► runtime::arena : std::pmr::memory_resource
//        │ resource()                       │ bump-pointer do_allocate
//        ▼                                  ▼ exhaustion → upstream heap
//   j2k decode stages (std::pmr::vector scratch, dwt/tier-1 buffers)
//
// Design points:
//   * The arena is a std::pmr::memory_resource, so the codec never sees the
//     runtime type — it just threads a memory_resource* through its scratch.
//   * The bump cursor is an atomic fetch-CAS, because one job fans its tiles
//     out across the pool and tiles allocate concurrently from the same
//     per-job arena.  Disjoint chunks, no locks.
//   * Exhaustion NEVER throws mid-decode: try_alloc() reports a typed error
//     (arena_errc) and do_allocate() falls back to the upstream heap resource,
//     counting the fallback so benches/metrics can assert it stayed at zero.
//   * reset() is cheap (cursor to zero) and, when poisoning is on (default
//     under !NDEBUG, switchable for tests), fills the used prefix with 0xA5 so
//     stale-byte reuse across jobs is loud instead of silent.
//   * deallocate is a no-op for arena-owned chunks (monotonic), and routes
//     non-owned pointers back upstream, so pmr containers that outlive a
//     fallback allocation still destroy cleanly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <vector>

namespace runtime {

/// Typed allocation failure (the "no throw mid-decode" contract).
enum class arena_errc : std::uint8_t {
    none = 0,
    exhausted,      ///< capacity would be exceeded
    bad_alignment,  ///< alignment not a power of two
};

/// Monotonic bump allocator over one pre-sized block.  Thread-safe for
/// concurrent allocation; reset() requires external quiescence (the pool's
/// lease discipline provides it).
class arena final : public std::pmr::memory_resource {
public:
    static constexpr std::byte k_poison{0xA5};

    /// The block is left uninitialised, so its pages are committed as the
    /// bump cursor first reaches them, not at construction: an idle worker's
    /// arena costs address space, not memory.
    explicit arena(std::size_t capacity)
        : block_{capacity ? std::make_unique_for_overwrite<std::byte[]>(capacity) : nullptr},
          cap_{capacity}
    {
    }

    arena(const arena&) = delete;
    arena& operator=(const arena&) = delete;

    /// Allocate or report a typed error; never throws, never falls back.
    [[nodiscard]] void* try_alloc(std::size_t bytes, std::size_t align,
                                  arena_errc* err = nullptr) noexcept
    {
        if (align == 0 || (align & (align - 1)) != 0) {
            if (err) *err = arena_errc::bad_alignment;
            return nullptr;
        }
        const auto base = reinterpret_cast<std::uintptr_t>(block_.get());
        std::size_t cur = off_.load(std::memory_order_relaxed);
        for (;;) {
            const std::size_t aligned =
                static_cast<std::size_t>(((base + cur + align - 1) & ~(align - 1)) -
                                         base);
            const std::size_t end = aligned + bytes;
            if (end < aligned || end > cap_) {  // overflow or out of room
                if (err) *err = arena_errc::exhausted;
                return nullptr;
            }
            if (off_.compare_exchange_weak(cur, end, std::memory_order_relaxed)) {
                bump_max(high_water_, end);
                allocs_.fetch_add(1, std::memory_order_relaxed);
                if (err) *err = arena_errc::none;
                return block_.get() + aligned;
            }
        }
    }

    /// Drop every allocation.  Callers must guarantee no live users (the pool
    /// resets only between leases).  With poisoning on, the used prefix is
    /// overwritten so stale bytes from the previous job cannot leak through.
    void reset() noexcept
    {
        const std::size_t used_now = off_.load(std::memory_order_relaxed);
        if (poison_.load(std::memory_order_relaxed) && used_now > 0)
            std::memset(block_.get(), static_cast<int>(k_poison),
                        used_now < cap_ ? used_now : cap_);
        off_.store(0, std::memory_order_relaxed);
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
    [[nodiscard]] std::size_t used() const noexcept
    {
        return off_.load(std::memory_order_relaxed);
    }
    /// Lifetime maximum of used() — sizes the pool from real traffic.
    [[nodiscard]] std::size_t high_water() const noexcept
    {
        return high_water_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t allocs() const noexcept
    {
        return allocs_.load(std::memory_order_relaxed);
    }
    /// Allocations that overflowed to the upstream heap via do_allocate().
    [[nodiscard]] std::uint64_t fallback_allocs() const noexcept
    {
        return fallbacks_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] bool owns(const void* p) const noexcept
    {
        const auto* b = static_cast<const std::byte*>(p);
        return block_ && b >= block_.get() && b < block_.get() + cap_;
    }

    /// Poison-fill on reset: defaults to on in !NDEBUG builds; tests may force
    /// it on to verify the stale-byte property in release builds too.
    void set_poison(bool on) noexcept { poison_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool poison_enabled() const noexcept
    {
        return poison_.load(std::memory_order_relaxed);
    }

protected:
    void* do_allocate(std::size_t bytes, std::size_t align) override
    {
        if (void* p = try_alloc(bytes, align)) return p;
        // pmr containers cannot take a typed error — degrade to the heap and
        // count it, so steady state stays observable (and assertable) instead
        // of failing the decode.
        fallbacks_.fetch_add(1, std::memory_order_relaxed);
        return upstream_->allocate(bytes, align);
    }

    void do_deallocate(void* p, std::size_t bytes, std::size_t align) override
    {
        if (owns(p)) return;  // monotonic: reclaimed wholesale by reset()
        upstream_->deallocate(p, bytes, align);
    }

    bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override
    {
        return this == &other;
    }

private:
    static void bump_max(std::atomic<std::size_t>& m, std::size_t v) noexcept
    {
        std::size_t cur = m.load(std::memory_order_relaxed);
        while (v > cur &&
               !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }

#ifdef NDEBUG
    static constexpr bool k_default_poison = false;
#else
    static constexpr bool k_default_poison = true;
#endif

    std::unique_ptr<std::byte[]> block_;
    std::size_t cap_ = 0;
    std::atomic<std::size_t> off_{0};
    std::atomic<std::size_t> high_water_{0};
    std::atomic<std::uint64_t> allocs_{0};
    std::atomic<std::uint64_t> fallbacks_{0};
    std::atomic<bool> poison_{k_default_poison};
    std::pmr::memory_resource* upstream_ = std::pmr::new_delete_resource();
};

/// Fixed set of arenas, one leased per in-flight job.  Sized to the worker
/// count, so with jobs ≤ workers a lease is always available; an empty lease
/// (pool dry, or pooling disabled) degrades the job to plain heap allocation.
class arena_pool {
public:
    arena_pool(std::size_t count, std::size_t bytes_each) : bytes_each_{bytes_each}
    {
        arenas_.reserve(count);
        free_.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            arenas_.push_back(std::make_unique<arena>(bytes_each));
            free_.push_back(arenas_.back().get());
        }
    }

    /// RAII lease: resource() feeds the job's scratch; the destructor resets
    /// the arena (poisoning per its flag) and returns it to the pool.
    class lease {
    public:
        lease() = default;
        lease(arena_pool* pool, arena* a) noexcept : pool_{pool}, a_{a} {}
        lease(lease&& o) noexcept : pool_{o.pool_}, a_{o.a_}
        {
            o.pool_ = nullptr;
            o.a_ = nullptr;
        }
        lease& operator=(lease&& o) noexcept
        {
            if (this != &o) {
                release();
                pool_ = o.pool_;
                a_ = o.a_;
                o.pool_ = nullptr;
                o.a_ = nullptr;
            }
            return *this;
        }
        lease(const lease&) = delete;
        lease& operator=(const lease&) = delete;
        ~lease() { release(); }

        [[nodiscard]] explicit operator bool() const noexcept { return a_ != nullptr; }
        [[nodiscard]] arena* get() const noexcept { return a_; }
        /// Null when the lease is empty — callers pass this straight through
        /// as the optional scratch resource (null = heap).
        [[nodiscard]] std::pmr::memory_resource* resource() const noexcept
        {
            return a_;
        }

    private:
        void release() noexcept
        {
            if (pool_ && a_) pool_->give_back(a_);
            pool_ = nullptr;
            a_ = nullptr;
        }
        arena_pool* pool_ = nullptr;
        arena* a_ = nullptr;
    };

    /// Never blocks: an exhausted pool yields an empty lease (counted), and
    /// the job simply runs on the heap.
    [[nodiscard]] lease acquire() noexcept
    {
        std::lock_guard lk{m_};
        ++leases_;
        if (free_.empty()) {
            ++dry_;
            return {};
        }
        arena* a = free_.back();
        free_.pop_back();
        return {this, a};
    }

    [[nodiscard]] std::size_t size() const noexcept { return arenas_.size(); }
    [[nodiscard]] std::size_t bytes_each() const noexcept { return bytes_each_; }
    [[nodiscard]] std::uint64_t leases() const noexcept
    {
        std::lock_guard lk{m_};
        return leases_;
    }
    /// acquire() calls that found the pool empty.
    [[nodiscard]] std::uint64_t dry_acquires() const noexcept
    {
        std::lock_guard lk{m_};
        return dry_;
    }
    [[nodiscard]] std::uint64_t fallback_allocs() const noexcept
    {
        std::uint64_t n = 0;
        for (const auto& a : arenas_) n += a->fallback_allocs();
        return n;
    }
    [[nodiscard]] std::size_t high_water() const noexcept
    {
        std::size_t n = 0;
        for (const auto& a : arenas_)
            n = a->high_water() > n ? a->high_water() : n;
        return n;
    }

private:
    void give_back(arena* a) noexcept
    {
        a->reset();
        std::lock_guard lk{m_};
        free_.push_back(a);
    }

    std::size_t bytes_each_ = 0;
    std::vector<std::unique_ptr<arena>> arenas_;
    mutable std::mutex m_;
    std::vector<arena*> free_;
    std::uint64_t leases_ = 0;
    std::uint64_t dry_ = 0;
};

}  // namespace runtime
