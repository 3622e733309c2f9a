// runtime/thread_pool.hpp — fixed worker pool over one locked run queue.
//
// Every task, whoever submits it, goes into one queue guarded by one mutex,
// tagged with the pool worker that submitted it (none for a thread outside
// the pool, and none for a root task).  A thread takes the newest task it
// submitted itself, the subtask it just spawned and whose data is warm; if it
// has none, it takes the oldest task it is allowed to run.  Idle workers wait
// on one condition variable without a timeout: every push is made under the
// mutex, so its notify cannot be lost.  This is the paper's application model
// on the host: software tasks that share work through one guarded object whose
// methods a single lock serialises.
//
// The lock carries little traffic.  Each decode job queues its one root pump,
// and a `parallel_for` queues one token per extra thread: a 16-tile decode
// queues 1 on a 2-worker pool and 3 on a 4-worker pool, a 1-tile one none.
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

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
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

    /// Enqueue a task.  From a worker thread the task belongs to that worker,
    /// which takes it back first; any idle thread may take it meanwhile.
    void submit(task t);

    /// Enqueue a *root* task: one that may block waiting on the result of
    /// another pool task (e.g. a whole decode job parked on a single-flight
    /// cache entry).  Root tasks only ever start from a worker's top-level
    /// loop — never from inside a `parallel_for` helping loop — so a task
    /// that is itself mid-job can never nest a second job on its stack and
    /// then block on work buried beneath its own frames.  A root task belongs
    /// to no worker, even when submitted from one.
    void submit_root(task t);

    /// Run `fn(0) .. fn(n-1)`, returning when all have finished.  Subtasks
    /// are claimed dynamically, so uneven iterations balance across workers.
    /// `max_concurrency` > 0 additionally caps how many threads (including
    /// the caller) work on this loop — the host-thread analogue of the
    /// paper's "number of parallel arithmetic decoder tasks" knob.
    /// The first exception thrown by any iteration is rethrown in the caller
    /// after the loop has quiesced.
    void parallel_for(int n, const std::function<void(int)>& fn, int max_concurrency = 0);

    /// Execute one pending task if any is available.  Returns false when the
    /// queue held none this thread may run.  Exposed so blocked threads can
    /// help.  Helpers skip root tasks (see `submit_root`): running a blocking
    /// job from a helping loop would stack it on top of the very work it
    /// waits for.
    bool try_run_one();

    /// Tasks executed since construction (all workers + helpers).
    [[nodiscard]] std::uint64_t tasks_executed() const noexcept
    {
        return executed_.load(std::memory_order_relaxed);
    }

    /// Steals since construction: tasks run by a thread other than the pool
    /// worker that submitted them.
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
    struct queued_task {
        task fn;
        int owner = -1;     ///< index of the submitting worker, or -1
        bool root = false;  ///< only a worker's top-level loop may run it
    };

    void push(queued_task q);
    /// With `m_` held: move the task worker `self` (-1 off-pool) runs next
    /// into `out` and count it; false when there is none it may run.
    bool take(int self, bool allow_root, task& out);
    void worker_loop(int index);

    std::mutex m_;
    std::condition_variable cv_;
    std::deque<queued_task> queue_;  ///< guarded by m_
    bool stop_ = false;              ///< guarded by m_
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> stolen_{0};
    std::vector<std::thread> workers_;  ///< last: the workers use every member above
};

}  // namespace runtime
