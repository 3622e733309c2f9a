#include "thread_pool.hpp"

#include <obs/trace.hpp>

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>

namespace runtime {

namespace {

/// Which pool (and worker slot) the current thread belongs to, so submit()
/// can tag a spawned subtask with the worker that spawned it.
thread_local thread_pool* tl_pool = nullptr;
thread_local int tl_worker = -1;

}  // namespace

thread_pool::thread_pool(int workers)
{
    if (workers <= 0)
        workers = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

thread_pool::~thread_pool()
{
    {
        std::lock_guard lk{m_};
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
}

void thread_pool::submit(task t)
{
    push({std::move(t), tl_pool == this ? tl_worker : -1, /*root=*/false});
}

void thread_pool::submit_root(task t)
{
    // Owned by no worker: a helper takes its own worker's tasks first, and a
    // root task must never start inside a helping loop (see the header).
    push({std::move(t), -1, /*root=*/true});
}

void thread_pool::push(queued_task q)
{
    {
        std::lock_guard lk{m_};
        queue_.push_back(std::move(q));
    }
    // An idle worker tests the queue under m_ before it waits, so it either
    // sees this task or is already waiting for this notify.
    cv_.notify_one();
}

bool thread_pool::take(int self, bool allow_root, task& out)
{
    // The newest task this worker submitted (never a root one): the subtask
    // it just spawned.  Otherwise the oldest task it may run.
    auto it = queue_.end();
    if (self >= 0) {
        const auto own = std::find_if(queue_.rbegin(), queue_.rend(),
                                      [&](const queued_task& q) { return q.owner == self; });
        if (own != queue_.rend()) it = std::prev(own.base());
    }
    if (it == queue_.end())
        it = std::find_if(queue_.begin(), queue_.end(),
                          [&](const queued_task& q) { return allow_root || !q.root; });
    if (it == queue_.end()) return false;

    out = std::move(it->fn);
    const bool stolen = it->owner >= 0 && it->owner != self;
    queue_.erase(it);
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (stolen) {
        const auto steals = stolen_.fetch_add(1, std::memory_order_relaxed) + 1;
        OBS_TRACE_COUNTER("runtime", "steals", steals);
    }
    return true;
}

bool thread_pool::try_run_one()
{
    task t;
    {
        std::lock_guard lk{m_};
        if (!take(tl_pool == this ? tl_worker : -1, /*allow_root=*/false, t)) return false;
    }
    t();
    return true;
}

void thread_pool::worker_loop(int index)
{
    tl_pool = this;
    tl_worker = index;
#if OBS_TRACING_ENABLED
    obs::tracer::instance().set_thread_name("pool-worker-" + std::to_string(index));
#endif
    std::unique_lock lk{m_};
    for (;;) {
        cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        task t;
        // Drain on exit: a stopping pool leaves only once the queue is empty.
        if (!take(index, /*allow_root=*/true, t)) return;
        lk.unlock();
        t();
        t = nullptr;  // a task's captures die outside the lock too
        lk.lock();
    }
}

void thread_pool::parallel_for(int n, const std::function<void(int)>& fn, int max_concurrency)
{
    if (n <= 0) return;

    struct loop_state {
        std::atomic<int> next{0};
        std::mutex m;
        std::condition_variable cv;
        int tokens_live = 0;     ///< guarded by m
        std::exception_ptr err;  ///< guarded by m
        int n = 0;
        const std::function<void(int)>* fn = nullptr;
    };
    loop_state st;
    st.n = n;
    st.fn = &fn;

    auto body = [&st] {
        for (;;) {
            const int i = st.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= st.n) break;
            try {
                (*st.fn)(i);
            } catch (...) {
                std::lock_guard lk{st.m};
                if (!st.err) st.err = std::current_exception();
            }
        }
    };

    // Tokens are claiming loops, caller included; each pulls indices until
    // the range is exhausted, so uneven iterations self-balance.
    int tokens = std::min(n, size() + 1);
    if (max_concurrency > 0) tokens = std::min(tokens, max_concurrency);
    st.tokens_live = tokens - 1;
    for (int t = 0; t < tokens - 1; ++t) {
        submit([&st, body] {
            body();
            // Decrement + notify both under the mutex: once the caller reads
            // tokens_live == 0 (also under the mutex) `st` may be destroyed,
            // so this token must be past every access to it by then.
            std::lock_guard lk{st.m};
            if (--st.tokens_live == 0) st.cv.notify_all();
        });
    }

    body();  // the caller is a full participant

    // Help until every worker token has exited (tokens reference `st` on our
    // stack).  Helping also makes nested parallel_for deadlock-free.
    for (;;) {
        {
            std::unique_lock lk{st.m};
            if (st.tokens_live == 0) break;
        }
        if (try_run_one()) continue;
        std::unique_lock lk{st.m};
        st.cv.wait_for(lk, std::chrono::milliseconds(1),
                       [&] { return st.tokens_live == 0; });
    }

    if (st.err) std::rethrow_exception(st.err);
}

thread_pool& thread_pool::shared()
{
    static thread_pool pool{0};
    return pool;
}

thread_pool* thread_pool::current() noexcept
{
    return tl_pool;
}

}  // namespace runtime
