/**
 * @file
 * Unit tests for the coroutine task layer.
 */

#include <gtest/gtest.h>

#include "coh/domain.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "test_util.hpp"

namespace cni
{
namespace
{

CoTask<int>
answer()
{
    co_return 42;
}

CoTask<int>
delayedAnswer(EventQueue &eq, Tick d)
{
    co_await delay(eq, d);
    co_return 7;
}

TEST(CoTask, ChainsReturnValues)
{
    EventQueue eq;
    TaskGroup group(eq);
    int got = 0;
    group.spawn([](int &out) -> CoTask<void> {
        out = co_await answer();
    }(got));
    eq.run();
    EXPECT_TRUE(group.done());
    EXPECT_EQ(got, 42);
}

TEST(CoTask, DelaySuspendsForExactTicks)
{
    EventQueue eq;
    TaskGroup group(eq);
    Tick finished = 0;
    int value = 0;
    group.spawn([](EventQueue &eq, Tick &fin, int &val) -> CoTask<void> {
        val = co_await delayedAnswer(eq, 25);
        fin = eq.now();
    }(eq, finished, value));
    eq.run();
    EXPECT_EQ(value, 7);
    EXPECT_EQ(finished, 25u);
}

TEST(CoTask, NestedAwaitsAccumulateDelays)
{
    EventQueue eq;
    TaskGroup group(eq);
    Tick finished = 0;
    group.spawn([](EventQueue &eq, Tick &fin) -> CoTask<void> {
        co_await delay(eq, 10);
        co_await delayedAnswer(eq, 15);
        co_await delay(eq, 5);
        fin = eq.now();
    }(eq, finished));
    eq.run();
    EXPECT_EQ(finished, 30u);
}

TEST(TaskGroup, TracksMultipleTasks)
{
    EventQueue eq;
    TaskGroup group(eq);
    int done = 0;
    for (int i = 1; i <= 5; ++i) {
        group.spawn([](EventQueue &eq, Tick d, int &done) -> CoTask<void> {
            co_await delay(eq, d);
            ++done;
        }(eq, i * 10, done));
    }
    EXPECT_EQ(group.live(), 5);
    eq.run();
    EXPECT_EQ(done, 5);
    EXPECT_TRUE(group.done());
}

TEST(TaskGroup, ZeroDelayTaskCompletesSynchronously)
{
    EventQueue eq;
    TaskGroup group(eq);
    group.spawn([]() -> CoTask<void> { co_return; }());
    EXPECT_TRUE(group.done());
}

TEST(WaitChannel, NotifyWakesAllWaiters)
{
    EventQueue eq;
    TaskGroup group(eq);
    WaitChannel ch(eq);
    int woke = 0;
    for (int i = 0; i < 3; ++i) {
        group.spawn([](WaitChannel &ch, int &woke) -> CoTask<void> {
            co_await ch.wait();
            ++woke;
        }(ch, woke));
    }
    eq.run();
    EXPECT_EQ(woke, 0); // nothing notified yet
    ch.notifyAll();
    eq.run();
    EXPECT_EQ(woke, 3);
    EXPECT_TRUE(group.done());
}

TEST(TxnAwaiter, ResumesWhenTheCompletionFiresLater)
{
    EventQueue eq;
    test::FixedLatencyDomain coh(eq, 33);
    coh.result.data = 99;
    TaskGroup group(eq);
    Tick finished = 0;
    std::uint64_t got = 0;
    group.spawn([](EventQueue &eq, CoherenceDomain &coh, Tick &fin,
                   std::uint64_t &got) -> CoTask<void> {
        BusTxn txn;
        txn.kind = TxnKind::UncachedRead;
        txn.addr = 0x40;
        const SnoopResult res = co_await TxnAwaiter(coh, txn);
        got = res.data;
        fin = eq.now();
    }(eq, coh, finished, got));
    eq.run();
    EXPECT_TRUE(group.done());
    EXPECT_EQ(finished, 33u);
    EXPECT_EQ(got, 99u);
    ASSERT_EQ(coh.completed.size(), 1u);
    EXPECT_EQ(coh.completed[0].addr, 0x40u);
}

TEST(TxnAwaiter, ResumesWhenTheCompletionFiresInsideTheIssueCall)
{
    EventQueue eq;
    test::FixedLatencyDomain coh(eq, 0);
    coh.result.data = 7;
    TaskGroup group(eq);
    std::uint64_t sum = 0;
    group.spawn([](CoherenceDomain &coh, std::uint64_t &sum) -> CoTask<void> {
        BusTxn txn;
        txn.initiator = Initiator::Device;
        for (int i = 0; i < 3; ++i) {
            const SnoopResult res = co_await TxnAwaiter(coh, txn);
            sum += res.data;
        }
    }(coh, sum));
    // Nothing was scheduled: the task finished inside spawn().
    EXPECT_TRUE(group.done());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(sum, 21u);
    EXPECT_EQ(coh.completed.size(), 3u);
}

} // namespace
} // namespace cni
