// thread_pool — submit, parallel_for coverage/determinism, nesting, helping
// join, exception propagation, concurrency capping.
#include <runtime/thread_pool.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using runtime::thread_pool;

TEST(ThreadPool, RunsSubmittedTasks)
{
    thread_pool pool{2};
    std::atomic<int> ran{0};
    std::promise<void> all;
    for (int i = 0; i < 100; ++i)
        pool.submit([&] {
            if (ran.fetch_add(1) + 1 == 100) all.set_value();
        });
    all.get_future().wait();
    EXPECT_EQ(ran.load(), 100);
    EXPECT_GE(pool.tasks_executed(), 100u);
}

TEST(ThreadPool, DefaultSizeIsHardwareConcurrency)
{
    thread_pool pool{0};
    EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    thread_pool pool{4};
    for (int n : {1, 2, 7, 64, 1000}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        pool.parallel_for(n, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n;
    }
}

TEST(ThreadPool, ParallelForZeroAndNegativeAreNoops)
{
    thread_pool pool{2};
    int touched = 0;
    pool.parallel_for(0, [&](int) { ++touched; });
    pool.parallel_for(-3, [&](int) { ++touched; });
    EXPECT_EQ(touched, 0);
}

TEST(ThreadPool, ParallelForMaxConcurrencyOneRunsInline)
{
    // A concurrency cap of 1 keeps everything on the calling thread, in
    // order — no tokens are spawned at all.
    thread_pool pool{4};
    const auto self = std::this_thread::get_id();
    std::vector<int> order;
    pool.parallel_for(
        16,
        [&](int i) {
            EXPECT_EQ(std::this_thread::get_id(), self);
            order.push_back(i);
        },
        1);
    std::vector<int> expect(16);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    thread_pool pool{2};
    std::atomic<int> leaves{0};
    pool.parallel_for(8, [&](int) {
        pool.parallel_for(8, [&](int) { leaves.fetch_add(1); });
    });
    EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPool, ParallelForFromInsideSubmittedTask)
{
    // Fan-out spawned by a pool task belongs to that worker and is stolen by
    // the others — the service's per-tile pattern.
    thread_pool pool{4};
    std::atomic<int> sum{0};
    std::promise<void> done;
    pool.submit([&] {
        pool.parallel_for(100, [&](int i) { sum.fetch_add(i); });
        done.set_value();
    });
    done.get_future().wait();
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    thread_pool pool{4};
    std::atomic<int> completed{0};
    try {
        pool.parallel_for(64, [&](int i) {
            if (i == 13) throw std::runtime_error{"boom"};
            completed.fetch_add(1);
        });
        FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    // The loop quiesced before rethrow: every non-throwing index ran.
    EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, SingleWorkerPoolStillCompletesFanOut)
{
    thread_pool pool{1};
    std::atomic<int> ran{0};
    pool.parallel_for(32, [&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> ran{0};
    {
        thread_pool pool{1};
        for (int i = 0; i < 50; ++i) pool.submit([&] { ran.fetch_add(1); });
    }  // ~thread_pool joins after the queue is empty
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, TryRunOneFromExternalThreadHelps)
{
    thread_pool pool{1};
    std::atomic<bool> gate{false};
    std::promise<void> parked;
    // Park the only worker so the next submission stays queued.
    pool.submit([&] {
        parked.set_value();
        while (!gate.load()) std::this_thread::yield();
    });
    parked.get_future().wait();
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    while (!pool.try_run_one()) std::this_thread::yield();
    EXPECT_EQ(ran.load(), 1);  // executed here, by the helper
    gate.store(true);
}

TEST(ThreadPool, ExternalHelperStealsFromWorkerDeque)
{
    // Deterministic steal: the only worker submits a subtask of its own and
    // then parks, so the helper's try_run_one can only obtain that task by
    // stealing.
    thread_pool pool{1};
    std::atomic<bool> gate{false};
    std::atomic<int> inner_ran{0};
    std::promise<void> spawned;
    pool.submit([&] {
        pool.submit([&] { inner_ran.fetch_add(1); });  // worker-local push
        spawned.set_value();
        while (!gate.load()) std::this_thread::yield();
    });
    spawned.get_future().wait();
    EXPECT_EQ(pool.tasks_stolen(), 0u);
    while (!pool.try_run_one()) std::this_thread::yield();
    EXPECT_EQ(inner_ran.load(), 1);
    EXPECT_EQ(pool.tasks_stolen(), 1u);
    gate.store(true);
}

TEST(ThreadPool, RootTasksOnlyRunAtWorkerTopLevel)
{
    // A root task (submit_root) may block on another pool task's result, so
    // helpers must refuse it even when it is the only work available; only a
    // worker's top-level loop may start it.
    thread_pool pool{1};
    std::atomic<bool> gate{false};
    std::promise<void> parked;
    pool.submit([&] {
        parked.set_value();
        while (!gate.load()) std::this_thread::yield();
    });
    parked.get_future().wait();

    std::atomic<int> root_ran{0};
    pool.submit_root([&] { root_ran.fetch_add(1); });
    EXPECT_FALSE(pool.try_run_one());  // helper refuses the root task
    EXPECT_EQ(root_ran.load(), 0);

    // A plain task queued *behind* the root one is still helper-visible.
    std::atomic<int> plain_ran{0};
    pool.submit([&] { plain_ran.fetch_add(1); });
    while (!pool.try_run_one()) std::this_thread::yield();
    EXPECT_EQ(plain_ran.load(), 1);
    EXPECT_EQ(root_ran.load(), 0);

    gate.store(true);  // unpark: the worker's top-level loop picks it up
    while (root_ran.load() == 0) std::this_thread::yield();
    EXPECT_EQ(root_ran.load(), 1);
}

TEST(ThreadPool, FanOutFromWorkerIsBalancedByStealing)
{
    // A single submitted job fanning out across the pool.  Iteration 0 holds
    // its thread until a second thread enters the loop, which that thread can
    // only do by taking a token the owning worker submitted: a steal.  Idle
    // workers wait without a timeout, so if the notify after a worker-local
    // submit were lost, no second thread would come and the wait would end at
    // its 10 s bound.
    thread_pool pool{4};
    std::mutex m;
    std::condition_variable cv;
    std::set<std::thread::id> entered;  // guarded by m
    bool joined = false;                // as seen by iteration 0
    std::atomic<int> ran{0};
    std::promise<void> done;
    pool.submit([&] {
        pool.parallel_for(512, [&](int i) {
            {
                std::unique_lock lk{m};
                entered.insert(std::this_thread::get_id());
                cv.notify_all();
                if (i == 0)
                    joined = cv.wait_for(lk, std::chrono::seconds(10),
                                         [&] { return entered.size() >= 2; });
            }
            ran.fetch_add(1);
        });
        done.set_value();
    });
    done.get_future().wait();
    EXPECT_TRUE(joined) << "no second thread entered the loop within 10 s";
    EXPECT_EQ(ran.load(), 512);
    EXPECT_GT(pool.tasks_stolen(), 0u);
}

TEST(ThreadPool, FanOutFromATaskQueuesOneTokenPerExtraThread)
{
    // The run queue's traffic from one fan-out: inside a task on a k-worker
    // pool, parallel_for(n, fn, c) queues min(n, k + 1, c) - 1 tokens (c = 0
    // sets no cap), each executed once, beside the outer task.  A fan-out of
    // one task per index would trip this, not quietly load the pool's lock.
    constexpr int k = 4;
    struct fan_out {
        int n;
        int cap;
        std::uint64_t tokens;
    };
    for (const fan_out f : {fan_out{1000, 0, 4}, fan_out{1000, 2, 1}, fan_out{1, 0, 0}}) {
        thread_pool pool{k};
        std::atomic<int> ran{0};
        std::promise<void> done;
        pool.submit([&] {
            pool.parallel_for(f.n, [&](int) { ran.fetch_add(1); }, f.cap);
            done.set_value();
        });
        done.get_future().wait();
        EXPECT_EQ(ran.load(), f.n);
        EXPECT_EQ(pool.tasks_executed(), 1 + f.tokens) << "n=" << f.n << " cap=" << f.cap;
    }
}

TEST(ThreadPool, SharedPoolIsProcessWideSingleton)
{
    EXPECT_EQ(&thread_pool::shared(), &thread_pool::shared());
    EXPECT_GE(thread_pool::shared().size(), 1);
    std::atomic<int> ran{0};
    thread_pool::shared().parallel_for(10, [&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
}

}  // namespace
