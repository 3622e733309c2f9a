// two_level_queue — backpressure policies, close/drain semantics,
// strict-priority pop with promotion, MPMC safety.
#include <runtime/queue.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace {

using runtime::backpressure;
using runtime::priority;
using runtime::push_result;
using runtime::two_level_queue;

TEST(TwoLevelQueue, InteractiveJumpsTheBatchBacklog)
{
    two_level_queue<int> q{8};
    (void)q.push(100, priority::batch);
    (void)q.push(101, priority::batch);
    (void)q.push(1, priority::interactive);
    auto p = q.pop();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->item, 1);
    EXPECT_EQ(p->prio, priority::interactive);
    EXPECT_FALSE(p->promoted);
    EXPECT_EQ(q.pop()->item, 100);  // then batch, FIFO within the level
    EXPECT_EQ(q.pop()->item, 101);
}

TEST(TwoLevelQueue, FifoWithinEachLevel)
{
    two_level_queue<int> q{8};
    for (int i = 0; i < 3; ++i) (void)q.push(int{i}, priority::interactive);
    for (int i = 10; i < 13; ++i) (void)q.push(int{i}, priority::batch);
    for (int want : {0, 1, 2, 10, 11, 12}) EXPECT_EQ(q.pop()->item, want);
}

TEST(TwoLevelQueue, PromotesBatchAfterConsecutiveBypassingPops)
{
    // promote_after = 2: every third pop under sustained interactive load
    // must deliver a (promoted) batch item.
    two_level_queue<int> q{16, backpressure::block, 2};
    for (int i = 0; i < 6; ++i) (void)q.push(int{i}, priority::interactive);
    (void)q.push(100, priority::batch);
    (void)q.push(101, priority::batch);

    std::vector<int> order;
    std::vector<bool> promoted;
    while (auto p = q.try_pop()) {
        order.push_back(p->item);
        promoted.push_back(p->promoted);
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 100, 2, 3, 101, 4, 5}));
    EXPECT_EQ(promoted, (std::vector<bool>{false, false, true, false, false, true,
                                           false, false}));
    EXPECT_EQ(q.promoted(), 2u);
}

TEST(TwoLevelQueue, EmptyBatchLevelAccruesNoStarvationGrievance)
{
    // Interactive pops with nothing to bypass must not bank promotion credit:
    // batch work arriving later still waits out the full threshold.
    two_level_queue<int> q{16, backpressure::block, 2};
    for (int i = 0; i < 4; ++i) (void)q.push(int{i}, priority::interactive);
    EXPECT_EQ(q.pop()->item, 0);
    EXPECT_EQ(q.pop()->item, 1);  // two pops, no batch waiting
    (void)q.push(100, priority::batch);
    EXPECT_EQ(q.pop()->item, 2);  // bypass #1
    EXPECT_EQ(q.pop()->item, 3);  // bypass #2
    (void)q.push(4, priority::interactive);
    auto p = q.pop();  // threshold reached: batch promoted past item 4
    EXPECT_EQ(p->item, 100);
    EXPECT_TRUE(p->promoted);
    EXPECT_EQ(q.pop()->item, 4);
}

TEST(TwoLevelQueue, BatchPopWithoutBypassIsNotAPromotion)
{
    two_level_queue<int> q{8};
    (void)q.push(100, priority::batch);
    auto p = q.pop();  // no interactive waiting: plain pop, no promotion
    EXPECT_EQ(p->prio, priority::batch);
    EXPECT_FALSE(p->promoted);
    EXPECT_EQ(q.promoted(), 0u);
}

TEST(TwoLevelQueue, SharedCapacityAndRejectAcrossLevels)
{
    two_level_queue<int> q{2, backpressure::reject};
    EXPECT_EQ(q.push(1, priority::interactive), push_result::ok);
    EXPECT_EQ(q.push(100, priority::batch), push_result::ok);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.size(priority::interactive), 1u);
    EXPECT_EQ(q.size(priority::batch), 1u);
    // The bound spans both levels: either class is refused when full.
    EXPECT_EQ(q.push(2, priority::interactive), push_result::rejected);
    EXPECT_EQ(q.push(101, priority::batch), push_result::rejected);
    EXPECT_EQ(q.high_water(), 2u);
}

TEST(TwoLevelQueue, PerLevelCapacityRejectsIndependently)
{
    // interactive bound 1, batch bound 2, shared bound 8: each class sheds at
    // its own limit while the other still has headroom.
    two_level_queue<int> q{8, backpressure::reject, 8,
                           runtime::level_capacities{1, 2}};
    EXPECT_EQ(q.capacity(), 8u);
    EXPECT_EQ(q.capacity(priority::interactive), 1u);
    EXPECT_EQ(q.capacity(priority::batch), 2u);
    EXPECT_EQ(q.push(1, priority::interactive), push_result::ok);
    EXPECT_EQ(q.push(2, priority::interactive), push_result::rejected);
    EXPECT_EQ(q.push(100, priority::batch), push_result::ok);
    EXPECT_EQ(q.push(101, priority::batch), push_result::ok);
    EXPECT_EQ(q.push(102, priority::batch), push_result::rejected);
    // Draining one level frees its bound without touching the other's.
    EXPECT_EQ(q.pop()->item, 1);
    EXPECT_EQ(q.push(3, priority::interactive), push_result::ok);
    EXPECT_EQ(q.push(103, priority::batch), push_result::rejected);
}

TEST(TwoLevelQueue, BlockPolicyWaitsOnLevelCapacity)
{
    // A producer blocked on its level bound must wake when *that level*
    // drains, even though the shared capacity never filled.
    two_level_queue<int> q{8, backpressure::block, 8,
                           runtime::level_capacities{1, 0}};
    (void)q.push(1, priority::interactive);
    EXPECT_EQ(q.push(100, priority::batch), push_result::ok);  // not bounded
    std::atomic<bool> pushed{false};
    std::thread producer{[&] {
        EXPECT_EQ(q.push(2, priority::interactive), push_result::ok);
        pushed.store(true);
    }};
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop()->item, 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
}

TEST(TwoLevelQueue, CloseDrainsBothLevelsThenSignalsEmpty)
{
    two_level_queue<int> q{4};
    (void)q.push(100, priority::batch);
    (void)q.push(1, priority::interactive);
    q.close();
    EXPECT_EQ(q.push(2, priority::interactive), push_result::closed);
    EXPECT_EQ(q.pop()->item, 1);
    EXPECT_EQ(q.pop()->item, 100);
    EXPECT_EQ(q.pop(), std::nullopt);  // closed + empty, no blocking
}

TEST(TwoLevelQueue, MpmcStressConservesAllItems)
{
    // 4 producers × 500 items, alternating levels, through a capacity-8 queue
    // into 4 consumers: every item must come out exactly once.  (Also the
    // TSan workout.)
    constexpr int producers = 4, consumers = 4, per_producer = 500;
    two_level_queue<int> q{8, backpressure::block};
    std::vector<std::atomic<int>> seen(producers * per_producer);
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            for (int i = 0; i < per_producer; ++i)
                ASSERT_EQ(q.push(p * per_producer + i,
                                 i % 2 ? priority::batch : priority::interactive),
                          push_result::ok);
        });
    for (int c = 0; c < consumers; ++c)
        threads.emplace_back([&] {
            while (auto v = q.pop()) seen[static_cast<std::size_t>(v->item)].fetch_add(1);
        });
    for (int p = 0; p < producers; ++p) threads[static_cast<std::size_t>(p)].join();
    q.close();
    for (int c = 0; c < consumers; ++c)
        threads[static_cast<std::size_t>(producers + c)].join();
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

}  // namespace
