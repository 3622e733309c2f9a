// runtime/queue.hpp — bounded MPMC two-level admission queue with
// backpressure.
//
// The host-side analogue of the explicit queued communication the OSSS models
// use between concurrent units: producers (request handlers) and consumers
// (pool workers) meet at a fixed-capacity queue, and what happens when the
// queue is full is a declared policy instead of an accident:
//
//   block  — producers wait for space (lossless, propagates pressure)
//   reject — push fails immediately (shed load at admission)
//
// All operations are linearisable under one internal mutex; this queue sits
// on the admission path (one push per decode job), not on the per-tile hot
// path, so contention is negligible compared to the decode work behind it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace runtime {

/// What a producer wants done when the queue is full.
enum class backpressure {
    block,   ///< wait until space is available
    reject,  ///< fail the push immediately
};

/// Outcome of a push attempt.
enum class push_result {
    ok,       ///< item enqueued
    rejected, ///< queue full and policy is reject
    closed,   ///< queue closed; item not enqueued
};

/// Admission class of a request.  `interactive` jumps ahead of `batch` at the
/// queue (strict priority with a starvation escape valve); within a class the
/// order stays FIFO.
enum class priority : int {
    interactive = 0,  ///< latency-sensitive (previews, on-screen decodes)
    batch = 1,        ///< throughput work (bulk transcodes, prefetch)
};

inline constexpr std::size_t priority_count = 2;

[[nodiscard]] constexpr const char* priority_name(priority p) noexcept
{
    return p == priority::interactive ? "interactive" : "batch";
}

/// Optional per-level bounds for `two_level_queue` (0 = no per-level bound;
/// the shared capacity still applies).  Independent bounds let an admission
/// front-end shed batch work aggressively while keeping headroom reserved for
/// interactive traffic (and vice versa).
struct level_capacities {
    std::size_t interactive = 0;
    std::size_t batch = 0;

    [[nodiscard]] constexpr std::size_t of(priority p) const noexcept
    {
        return p == priority::interactive ? interactive : batch;
    }
};

/// Two-level strict-priority bounded MPMC queue.
///
/// One shared capacity across both levels, plus optional independent
/// per-level bounds, and an admission class per item:
///
///   pop      — interactive first; after `promote_after` *consecutive*
///              interactive pops with batch work waiting, one batch item is
///              promoted past the interactive backlog (starvation escape
///              valve), and the counter resets.
template <typename T>
class two_level_queue {
public:
    /// What a consumer receives: the item, its class, and whether strict
    /// priority was overridden to deliver it (batch promoted past waiting
    /// interactive work).
    struct popped {
        T item;
        priority prio = priority::batch;
        bool promoted = false;
    };

    explicit two_level_queue(std::size_t capacity,
                             backpressure policy = backpressure::block,
                             std::size_t promote_after = 8,
                             level_capacities level_caps = {})
        : cap_{capacity == 0 ? 1 : capacity},
          level_caps_{level_caps},
          policy_{policy},
          promote_after_{promote_after == 0 ? 1 : promote_after}
    {
    }

    two_level_queue(const two_level_queue&) = delete;
    two_level_queue& operator=(const two_level_queue&) = delete;

    /// Enqueue `v` at level `p` according to the backpressure policy.  `v` is
    /// consumed only when the item is actually enqueued (`ok`): on
    /// `rejected`/`closed` the caller keeps it — important when the item
    /// carries a completion that must be told of the failure.
    push_result push(T&& v, priority p)
    {
        std::unique_lock lk{m_};
        if (closed_) return push_result::closed;
        if (full_for_locked(p)) {
            if (policy_ == backpressure::reject) return push_result::rejected;
            not_full_.wait(lk, [&] { return closed_ || !full_for_locked(p); });
            if (closed_) return push_result::closed;
        }
        level(p).push_back(std::move(v));
        high_water_ = std::max(high_water_, total_locked());
        lk.unlock();
        not_empty_.notify_one();
        return push_result::ok;
    }

    /// Dequeue, blocking until an item arrives or the queue is closed *and*
    /// drained.  Returns nullopt only on closed-and-empty.
    std::optional<popped> pop()
    {
        std::unique_lock lk{m_};
        not_empty_.wait(lk, [&] { return closed_ || total_locked() > 0; });
        if (total_locked() == 0) return std::nullopt;
        return take_locked(lk);
    }

    /// Non-blocking dequeue.
    std::optional<popped> try_pop()
    {
        std::unique_lock lk{m_};
        if (total_locked() == 0) return std::nullopt;
        return take_locked(lk);
    }

    /// Stop accepting pushes and wake every waiter.  Items already queued
    /// remain poppable (drain semantics).
    void close()
    {
        {
            std::lock_guard lk{m_};
            closed_ = true;
        }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    [[nodiscard]] bool closed() const
    {
        std::lock_guard lk{m_};
        return closed_;
    }

    [[nodiscard]] std::size_t size() const
    {
        std::lock_guard lk{m_};
        return total_locked();
    }

    [[nodiscard]] std::size_t size(priority p) const
    {
        std::lock_guard lk{m_};
        return levels_[static_cast<std::size_t>(p)].size();
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
    /// Per-level bound (0 = bounded only by the shared capacity).
    [[nodiscard]] std::size_t capacity(priority p) const noexcept
    {
        return level_caps_.of(p);
    }
    [[nodiscard]] backpressure policy() const noexcept { return policy_; }
    [[nodiscard]] std::size_t promote_after() const noexcept { return promote_after_; }

    /// Highest total occupancy ever observed.
    [[nodiscard]] std::size_t high_water() const
    {
        std::lock_guard lk{m_};
        return high_water_;
    }

    /// Batch items delivered past waiting interactive work (escape valve).
    [[nodiscard]] std::uint64_t promoted() const
    {
        std::lock_guard lk{m_};
        return promoted_;
    }

private:
    std::deque<T>& level(priority p) { return levels_[static_cast<std::size_t>(p)]; }

    [[nodiscard]] std::size_t total_locked() const
    {
        return levels_[0].size() + levels_[1].size();
    }

    /// Can a push at level `p` not proceed right now?  The shared bound or
    /// level `p`'s own (optional) bound is reached.
    [[nodiscard]] bool full_for_locked(priority p) const
    {
        const std::size_t lcap = level_caps_.of(p);
        return total_locked() >= cap_ ||
               (lcap != 0 && levels_[static_cast<std::size_t>(p)].size() >= lcap);
    }

    popped take_locked(std::unique_lock<std::mutex>& lk)
    {
        const bool has_interactive = !level(priority::interactive).empty();
        const bool has_batch = !level(priority::batch).empty();
        popped out;
        if (has_batch &&
            (!has_interactive || consecutive_interactive_ >= promote_after_)) {
            out.prio = priority::batch;
            out.promoted = has_interactive;  // jumped the interactive backlog
            if (out.promoted) ++promoted_;
            consecutive_interactive_ = 0;
        } else {
            out.prio = priority::interactive;
            // Count only pops that actually bypass waiting batch work; an
            // empty batch level accrues no starvation grievance.
            if (has_batch) ++consecutive_interactive_;
        }
        auto& q = level(out.prio);
        out.item = std::move(q.front());
        q.pop_front();
        lk.unlock();
        not_full_.notify_one();
        return out;
    }

    const std::size_t cap_;
    const level_capacities level_caps_;
    const backpressure policy_;
    const std::size_t promote_after_;
    mutable std::mutex m_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<T> levels_[priority_count];
    std::size_t high_water_ = 0;
    /// Consecutive interactive pops that bypassed waiting batch work; resets
    /// on every batch pop.
    std::size_t consecutive_interactive_ = 0;
    std::uint64_t promoted_ = 0;
    bool closed_ = false;
};

}  // namespace runtime
