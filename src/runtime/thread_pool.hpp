// runtime/thread_pool.hpp — fixed worker pool with per-worker lock-free
// work-stealing deques.
//
// Workers own a Chase–Lev deque each (see work_deque.hpp): the owner pushes
// and pops at the bottom with plain atomics (LIFO, good locality for subtasks
// it just spawned), idle workers steal from the top with a single CAS (FIFO,
// takes the oldest — typically largest — piece of a competing job).  The
// per-task hot path (a worker fanning tiles out to its siblings) therefore
// crosses no mutex at all.
//
// Tasks submitted from *outside* the pool cannot use an owner end, so they
// land on a shared mutex-guarded injection queue instead; workers drain it
// FIFO between their own deque and stealing.  That queue sees one push per
// externally submitted job (the admission path), not per subtask, so the
// mutex is off the hot path by construction.
//
// `parallel_for` is the fork/join primitive the decode service fans tiles out
// with.  The calling thread *helps* — it executes pending tasks while it
// waits — so calling it from inside a pool task (nested fan-out) cannot
// deadlock, and a pool of one worker degrades to clean inline execution.
//
// Helping has one carve-out: *root* tasks (`submit_root`) — whole jobs that
// may themselves block on another job's result, like a decode parked on a
// single-flight cache entry.  A helper that picked one up mid-job could end
// up waiting, on its own stack, for the very fan-out it was helping to
// finish.  Root tasks therefore start only from a worker's top-level loop.
#pragma once

#include "work_deque.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace runtime {

class thread_pool {
public:
    using task = std::function<void()>;

    /// Start `workers` threads; <= 0 selects the hardware concurrency.
    explicit thread_pool(int workers = 0);

    /// Joins all workers; pending tasks are still executed (drain on exit).
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()); }

    /// Enqueue a task.  From a worker thread the task lands on that worker's
    /// own deque (stealable by the others); from outside, on the shared
    /// injection queue.
    void submit(task t);

    /// Enqueue a *root* task: one that may block waiting on the result of
    /// another pool task (e.g. a whole decode job parked on a single-flight
    /// cache entry).  Root tasks only ever start from a worker's top-level
    /// loop — never from inside a `parallel_for` helping loop — so a task
    /// that is itself mid-job can never nest a second job on its stack and
    /// then block on work buried beneath its own frames.  They always go to
    /// the shared injection queue, even when submitted from a worker.
    void submit_root(task t);

    /// Run `fn(0) .. fn(n-1)`, returning when all have finished.  Subtasks
    /// are claimed dynamically, so uneven iterations balance across workers.
    /// `max_concurrency` > 0 additionally caps how many threads (including
    /// the caller) work on this loop — the host-thread analogue of the
    /// paper's "number of parallel arithmetic decoder tasks" knob.
    /// The first exception thrown by any iteration is rethrown in the caller
    /// after the loop has quiesced.
    void parallel_for(int n, const std::function<void(int)>& fn, int max_concurrency = 0);

    /// Execute one pending task if any is available.  Returns false when
    /// every deque was empty.  Exposed so blocked threads can help.  Helpers
    /// skip root tasks (see `submit_root`): running a blocking job from a
    /// helping loop would stack it on top of the very work it waits for.
    bool try_run_one();

    /// Tasks executed since construction (all workers + helpers).
    [[nodiscard]] std::uint64_t tasks_executed() const noexcept
    {
        return executed_.load(std::memory_order_relaxed);
    }

    /// Steals observed since construction (tasks run by a non-owning worker).
    [[nodiscard]] std::uint64_t tasks_stolen() const noexcept
    {
        return stolen_.load(std::memory_order_relaxed);
    }

    /// Process-wide pool sized to the hardware concurrency, created on first
    /// use and alive for the rest of the process.  `j2k::decoder::
    /// decode_all_parallel` runs on this when called from outside any pool.
    [[nodiscard]] static thread_pool& shared();

    /// The pool whose worker is the calling thread, or null off-pool.  Lets a
    /// decode fan out over the pool that runs it (a service's own workers)
    /// instead of a second, unbounded one.
    [[nodiscard]] static thread_pool* current() noexcept;

private:
    void worker_loop(int index);
    bool pop_or_steal(int self, task& out, bool allow_root);

    struct injected_task {
        task fn;
        bool root = false;  ///< only a worker's top-level loop may run it
    };

    std::vector<std::unique_ptr<work_deque<task>>> deques_;
    std::vector<std::thread> workers_;

    std::mutex inject_m_;
    std::deque<injected_task> injected_;  ///< external submissions (admission path)

    std::mutex wake_m_;
    std::condition_variable wake_cv_;
    std::atomic<int> pending_{0};
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> steal_seed_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> stolen_{0};
};

}  // namespace runtime
