#include "thread_pool.hpp"

#include <obs/trace.hpp>

#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

namespace runtime {

namespace {

/// Which pool (and worker slot) the current thread belongs to, so submit()
/// can route spawned subtasks onto the spawning worker's own deque.
thread_local thread_pool* tl_pool = nullptr;
thread_local int tl_worker = -1;

}  // namespace

thread_pool::thread_pool(int workers)
{
    if (workers <= 0)
        workers = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    deques_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        deques_.push_back(std::make_unique<work_deque<task>>());
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

thread_pool::~thread_pool()
{
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard lk{wake_m_};
    }
    wake_cv_.notify_all();
    for (auto& t : workers_) t.join();
}

void thread_pool::submit(task t)
{
    if (tl_pool == this && tl_worker >= 0) {
        // Worker-local: owner push onto the Chase–Lev deque, no lock.
        deques_[static_cast<std::size_t>(tl_worker)]->push(new task{std::move(t)});
    } else {
        std::lock_guard lk{inject_m_};
        injected_.push_back({std::move(t), /*root=*/false});
    }
    pending_.fetch_add(1, std::memory_order_release);
    {
        // Taking the wake mutex (even empty) orders this notify after any
        // worker's predicate check, so the wakeup cannot be lost.
        std::lock_guard lk{wake_m_};
    }
    wake_cv_.notify_one();
}

void thread_pool::submit_root(task t)
{
    // Always the injection queue, even from a worker: anything on a worker's
    // own deque is fair game for a helping loop, and a root task must never
    // start inside one (it may block on another job — see the header).
    {
        std::lock_guard lk{inject_m_};
        injected_.push_back({std::move(t), /*root=*/true});
    }
    pending_.fetch_add(1, std::memory_order_release);
    {
        std::lock_guard lk{wake_m_};
    }
    wake_cv_.notify_one();
}

bool thread_pool::pop_or_steal(int self, task& out, bool allow_root)
{
    // Own deque first, from the bottom: the most recently spawned subtask has
    // the hottest working set.
    if (self >= 0) {
        if (task* p = deques_[static_cast<std::size_t>(self)]->pop()) {
            out = std::move(*p);
            delete p;
            pending_.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    // Then the injection queue: the oldest externally submitted job.  Helpers
    // (allow_root == false) take the oldest *non-root* entry and leave root
    // jobs for a worker's top-level loop.
    {
        std::lock_guard lk{inject_m_};
        if (allow_root) {
            if (!injected_.empty()) {
                out = std::move(injected_.front().fn);
                injected_.pop_front();
                pending_.fetch_sub(1, std::memory_order_relaxed);
                return true;
            }
        } else {
            for (auto it = injected_.begin(); it != injected_.end(); ++it) {
                if (it->root) continue;
                out = std::move(it->fn);
                injected_.erase(it);
                pending_.fetch_sub(1, std::memory_order_relaxed);
                return true;
            }
        }
    }
    // Steal from the top of a victim, scanning from a rotating start so
    // thieves spread over victims instead of all hammering worker 0.
    const std::size_t n = deques_.size();
    const std::size_t start = steal_seed_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t v = (start + k) % n;
        if (static_cast<int>(v) == self) continue;
        if (task* p = deques_[v]->steal()) {
            out = std::move(*p);
            delete p;
            pending_.fetch_sub(1, std::memory_order_relaxed);
            const auto steals = stolen_.fetch_add(1, std::memory_order_relaxed) + 1;
            OBS_TRACE_COUNTER("runtime", "steals", steals);
            return true;
        }
    }
    return false;
}

bool thread_pool::try_run_one()
{
    task t;
    const int self = (tl_pool == this) ? tl_worker : -1;
    if (!pop_or_steal(self, t, /*allow_root=*/false)) return false;
    executed_.fetch_add(1, std::memory_order_relaxed);
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
    task t;
    for (;;) {
        if (pop_or_steal(index, t, /*allow_root=*/true)) {
            executed_.fetch_add(1, std::memory_order_relaxed);
            t();
            t = nullptr;
            continue;
        }
        std::unique_lock lk{wake_m_};
        if (stop_.load(std::memory_order_acquire) &&
            pending_.load(std::memory_order_acquire) == 0)
            break;  // drain-on-exit: leave only once nothing is pending
        wake_cv_.wait_for(lk, std::chrono::milliseconds(50), [&] {
            return stop_.load(std::memory_order_acquire) ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
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
