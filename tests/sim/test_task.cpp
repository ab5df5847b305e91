/**
 * @file
 * Unit tests for the coroutine task layer and its frame pool.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <new>
#include <thread>
#include <vector>

#include "coh/domain.hpp"
#include "core/machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
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

// ---- frame pool ------------------------------------------------------------

/**
 * A lazy coroutine whose frame the test sees: it allocates and frees its
 * frame through PromiseBase exactly as a CoTask does, and records the
 * block and the size the compiler asked for.
 */
struct Frame
{
    struct promise_type : detail::PromiseBase
    {
        static void *
        operator new(std::size_t bytes)
        {
            lastBytes = bytes;
            lastBlock = detail::PromiseBase::operator new(bytes);
            return lastBlock;
        }

        /** Pairs with the operator new above. */
        static void
        operator delete(void *frame, std::size_t bytes) noexcept
        {
            detail::PromiseBase::operator delete(frame, bytes);
        }

        Frame
        get_return_object()
        {
            return {std::coroutine_handle<promise_type>::from_promise(*this),
                    lastBlock, lastBytes};
        }

        void return_void() {}

        static inline void *lastBlock = nullptr;
        static inline std::size_t lastBytes = 0;
    };

    std::coroutine_handle<promise_type> handle;
    void *block = nullptr;
    std::size_t bytes = 0;

    void
    destroy()
    {
        handle.destroy();
        handle = nullptr;
    }
};

Frame
smallFrame()
{
    co_return;
}

/** The parameter is copied into the frame. */
Frame
largeFrame(std::array<char, 2 * frame_pool::kMaxPooled> pad)
{
    (void)pad;
    co_return;
}

/** Whether `block` is on the calling thread's free lists. */
bool
pooled(const void *block)
{
    for (const frame_pool::Block *head : frame_pool::tLists.head) {
        for (const frame_pool::Block *b = head; b != nullptr; b = b->next) {
            if (b == block)
                return true;
        }
    }
    return false;
}

/** Blocks on the calling thread's free lists. */
std::size_t
pooledBlocks()
{
    std::size_t n = 0;
    for (const frame_pool::Block *head : frame_pool::tLists.head) {
        for (const frame_pool::Block *b = head; b != nullptr; b = b->next)
            ++n;
    }
    return n;
}

#define SKIP_IF_NO_POOL()                                                    \
    if (!frame_pool::kEnabled)                                               \
    GTEST_SKIP() << "AddressSanitizer build: frames come from the heap"

TEST(FramePool, DestroyedFrameServesTheNextFrameOfItsClass)
{
    SKIP_IF_NO_POOL();
    Frame a = smallFrame();
    ASSERT_LE(a.bytes, frame_pool::kMaxPooled);
    a.destroy();
    EXPECT_TRUE(pooled(a.block));
    // The heap cannot hand the block out: the pool holds it.
    void *const heap = ::operator new(a.bytes);
    EXPECT_NE(heap, a.block);
    ::operator delete(heap, a.bytes);
    Frame b = smallFrame();
    EXPECT_EQ(b.block, a.block);
    b.destroy();
    // Any size of the class is served from the same list.
    const std::size_t classTop =
        frame_pool::classBytes(frame_pool::sizeClass(a.bytes));
    void *const top = frame_pool::allocate(classTop);
    EXPECT_EQ(top, a.block);
    frame_pool::release(top, classTop);
}

TEST(FramePool, FrameAboveThePooledMaximumBypassesThePool)
{
    SKIP_IF_NO_POOL();
    Frame f = largeFrame({});
    ASSERT_GT(f.bytes, frame_pool::kMaxPooled);
    f.destroy();
    EXPECT_FALSE(pooled(f.block));
}

TEST(FramePool, FrameDestroyedOnAnotherThreadJoinsThatThreadsPool)
{
    SKIP_IF_NO_POOL();
    Frame f;
    std::thread([&f] { f = smallFrame(); }).join();
    ASSERT_FALSE(pooled(f.block));
    f.destroy();
    EXPECT_TRUE(pooled(f.block));
    Frame g = smallFrame();
    EXPECT_EQ(g.block, f.block);
    g.destroy();
}

/**
 * Holds a frame until its thread exits. Built before the thread's first
 * frame arms the pool's reaper, it is destroyed after the reaper ran.
 */
struct LateRelease
{
    Frame frame;
    bool *reapedOut = nullptr;
    bool *pooledOut = nullptr;

    ~LateRelease()
    {
        if (frame.handle) {
            frame.destroy();
            *reapedOut = frame_pool::tLists.reaped;
            *pooledOut = pooled(frame.block);
        }
    }
};

TEST(FramePool, FrameReleasedAfterItsThreadsPoolWasReapedGoesToTheHeap)
{
    SKIP_IF_NO_POOL();
    bool reaped = false;
    bool pooledAfter = true;
    std::thread([&reaped, &pooledAfter] {
        thread_local LateRelease late;
        late.reapedOut = &reaped;
        late.pooledOut = &pooledAfter;
        late.frame = smallFrame();
        // A block for the reaper to free.
        smallFrame().destroy();
        ASSERT_TRUE(frame_pool::tLists.armed);
    }).join();
    EXPECT_TRUE(reaped);
    EXPECT_FALSE(pooledAfter);
}

/**
 * A sharded mesh whose programs are still inside pollUntil when the
 * run's budget ends: the worker threads made most of their frames, and
 * the teardown here releases them onto this thread's lists.
 */
void
buildRunAndDropAParkedShardedMesh()
{
    Machine m =
        Machine::describe().nodes(64).net("mesh").threads(4).build();
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        m.spawn(n, [](Machine &m, NodeId n) -> CoTask<void> {
            co_await m.endpoint(n).pollUntil([] { return false; });
        }(m, n));
    }
    m.runUntil(5000);
}

TEST(FramePool, FramesReleasedPastTheThreadBudgetGoToTheHeap)
{
    SKIP_IF_NO_POOL();
    // Each parked run leaves frames that other threads made here, and
    // nothing on this thread asks for them again.
    const std::size_t before = pooledBlocks();
    buildRunAndDropAParkedShardedMesh();
    ASSERT_GT(pooledBlocks(), before);

    // Fill the lists to the budget (the runs would take about a hundred
    // rounds to get there), then keep running: the count stays put.
    std::vector<void *> fill(frame_pool::kMaxBlocks);
    for (void *&p : fill)
        p = frame_pool::allocate(frame_pool::kClassBytes);
    for (void *p : fill)
        frame_pool::release(p, frame_pool::kClassBytes);
    EXPECT_EQ(pooledBlocks(), frame_pool::kMaxBlocks);
    for (int run = 0; run < 3; ++run) {
        buildRunAndDropAParkedShardedMesh();
        EXPECT_EQ(pooledBlocks(), frame_pool::kMaxBlocks) << run;
    }
}

} // namespace
} // namespace cni
