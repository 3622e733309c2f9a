// runtime/arena.hpp — bump allocator behind std::pmr::memory_resource.
//
// The decode service does not use it: decode scratch comes from the heap and
// is freed when its stage ends (docs/RUNTIME.md, "Decode scratch").  It stays
// for callers that hand a resource to the j2k entry points that still take
// one (decoder::entropy_decode, decoder::idwt,
// decode_session::set_scratch_arena), such as the serving benchmark's replay.
// The shape follows the tjdec idiom (SNIPPETS.md §3): one caller-supplied
// block, a monotonic cursor, no per-allocation bookkeeping.
//
// Design points:
//   * The bump cursor is an atomic fetch-CAS, so tiles decoding in parallel
//     can allocate from one arena.  Disjoint chunks, no locks.
//   * Exhaustion never throws: try_alloc() reports a typed error (arena_errc)
//     and do_allocate() falls back to the upstream heap resource, counting
//     the fallback.
//   * reset() is cheap (cursor to zero) and, when poisoning is on (default
//     under !NDEBUG, switchable for tests), fills the used prefix with 0xA5 so
//     stale-byte reuse is loud instead of silent.
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

namespace runtime {

/// Typed allocation failure (the "no throw mid-decode" contract).
enum class arena_errc : std::uint8_t {
    none = 0,
    exhausted,      ///< capacity would be exceeded
    bad_alignment,  ///< alignment not a power of two
};

/// Monotonic bump allocator over one pre-sized block.  Thread-safe for
/// concurrent allocation; reset() requires external quiescence.
class arena final : public std::pmr::memory_resource {
public:
    static constexpr std::byte k_poison{0xA5};

    /// The block is left uninitialised, so its pages are committed as the
    /// bump cursor first reaches them, not at construction: an unused arena
    /// costs address space, not memory.
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

    /// Drop every allocation.  Callers must guarantee no live users.  With
    /// poisoning on, the used prefix is overwritten so stale bytes from the
    /// previous use cannot leak through.
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
    /// Lifetime maximum of used().
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

}  // namespace runtime
