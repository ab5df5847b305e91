/**
 * @file
 * Store buffer tests: non-blocking retirement, FIFO drain, capacity
 * stalls, and membar semantics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "../test_util.hpp"
#include "mem/store_buffer.hpp"

namespace cni
{
namespace
{

struct SbRig
{
    EventQueue eq;
    test::FixedLatencyDomain bus;
    std::unique_ptr<StoreBuffer> sb;

    explicit SbRig(Tick busDelay = 12, int depth = 8) : bus(eq, busDelay)
    {
        sb = std::make_unique<StoreBuffer>(eq, "stb", bus, depth);
    }
};

TEST(StoreBuffer, StoreRetiresInOneCycle)
{
    SbRig rig;
    Tick done = 0;
    test::runTask(rig.eq, [](SbRig &r, Tick &done) -> CoTask<void> {
        co_await r.sb->push(0x100, 7);
        done = r.eq.now();
    }(rig, done));
    EXPECT_EQ(done, 1u); // processor continues immediately
    EXPECT_EQ(rig.bus.completed.size(), 1u);
}

TEST(StoreBuffer, DrainsInFifoOrder)
{
    SbRig rig;
    test::runTask(rig.eq, [](SbRig &r) -> CoTask<void> {
        for (std::uint64_t i = 0; i < 5; ++i)
            co_await r.sb->push(0x100 + i * 8, i);
    }(rig));
    ASSERT_EQ(rig.bus.completed.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(rig.bus.completed[i].data, i);
}

TEST(StoreBuffer, MembarWaitsForEmpty)
{
    SbRig rig;
    Tick membarDone = 0;
    test::runTask(rig.eq, [](SbRig &r, Tick &done) -> CoTask<void> {
        for (int i = 0; i < 3; ++i)
            co_await r.sb->push(0x100, i);
        co_await r.sb->drain();
        done = r.eq.now();
    }(rig, membarDone));
    // Three 12-cycle bus transactions must complete before the membar.
    EXPECT_GE(membarDone, 36u);
    EXPECT_TRUE(rig.sb->empty());
}

TEST(StoreBuffer, FullBufferStallsTheProcessor)
{
    SbRig rig(/*busDelay=*/50, /*depth=*/2);
    Tick thirdDone = 0;
    test::runTask(rig.eq, [](SbRig &r, Tick &done) -> CoTask<void> {
        co_await r.sb->push(0x0, 0);
        co_await r.sb->push(0x8, 1);
        co_await r.sb->push(0x10, 2); // must wait for a free entry
        done = r.eq.now();
    }(rig, thirdDone));
    EXPECT_GE(thirdDone, 50u);
    EXPECT_GT(rig.sb->stats().counter("full_stalls"), 0u);
}

TEST(StoreBuffer, MembarOnEmptyBufferIsImmediate)
{
    SbRig rig;
    Tick done = 1;
    test::runTask(rig.eq, [](SbRig &r, Tick &done) -> CoTask<void> {
        co_await r.sb->drain();
        done = r.eq.now();
    }(rig, done));
    EXPECT_EQ(done, 0u);
}

} // namespace
} // namespace cni
