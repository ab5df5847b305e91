/**
 * @file
 * NI device unit tests at the driver level: per-design polling costs,
 * the CNI4 reuse handshake, CNIQ lazy shadow refreshes, virtual polling,
 * and CNI16Qm overflow behaviour.
 */

#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "ni/registry.hpp"
#include "ni/cniq.hpp"

namespace cni
{
namespace
{

struct NiRig
{
    Machine sys;

    explicit NiRig(const char *m, NiPlacement p = NiPlacement::MemoryBus,
                   bool snarf = false)
        : sys(Machine::describe()
                  .nodes(2)
                  .ni(m)
                  .placement(p)
                  .snarfing(snarf)
                  .spec())
    {
    }

    /** Cost in cycles of one empty receive poll on node 0. */
    Tick
    emptyPollCost()
    {
        Tick cost = 0;
        TaskGroup group(sys.eq());
        group.spawn([](Machine &sys, Tick &cost) -> CoTask<void> {
            NetMsg m;
            const Tick start = sys.eq().now();
            bool got = co_await sys.ni(0).tryRecv(sys.proc(0), m, 0);
            EXPECT_FALSE(got);
            cost = sys.eq().now() - start;
        }(sys, cost));
        sys.eq().run();
        return cost;
    }
};

TEST(NiUnits, Ni2wEmptyPollCostsAnUncachedLoad)
{
    NiRig rig("NI2w");
    EXPECT_EQ(rig.emptyPollCost(), 28u); // Table 2 uncached load
}

TEST(NiUnits, Ni2wEmptyPollOnIoBusCostsMore)
{
    NiRig rig("NI2w", NiPlacement::IoBus);
    EXPECT_EQ(rig.emptyPollCost(), 48u);
}

TEST(NiUnits, Cni4EmptyPollCostsAnUncachedLoad)
{
    NiRig rig("CNI4");
    EXPECT_EQ(rig.emptyPollCost(), 28u);
}

TEST(NiUnits, CniqEmptyPollHitsInCache)
{
    // The whole point of message valid bits: polling an empty queue is a
    // couple of cache hits, not a bus transaction. The very first poll
    // faults the header block in; steady-state polls are cheap.
    NiRig rig("CNI512Q");
    Tick first = 0, second = 0;
    TaskGroup group(rig.sys.eq());
    group.spawn([](Machine &sys, Tick &first, Tick &second) -> CoTask<void> {
        NetMsg m;
        Tick start = sys.eq().now();
        co_await sys.ni(0).tryRecv(sys.proc(0), m, 0);
        first = sys.eq().now() - start;
        start = sys.eq().now();
        co_await sys.ni(0).tryRecv(sys.proc(0), m, 0);
        second = sys.eq().now() - start;
    }(rig.sys, first, second));
    rig.sys.eq().run();
    EXPECT_GT(first, 40u); // cold: fetches the head slot block
    EXPECT_LE(second, 4u); // warm: cache hits only, no bus traffic
}

TEST(NiUnits, CniqSendSignalsWithOneUncachedStore)
{
    NiRig rig("CNI512Q");
    TaskGroup group(rig.sys.eq());
    group.spawn([](Machine &sys) -> CoTask<void> {
        NetMsg m;
        m.src = 0;
        m.dst = 1;
        m.payload.assign(32, 7);
        bool ok = co_await sys.ni(0).trySend(sys.proc(0), m, 0);
        EXPECT_TRUE(ok);
    }(rig.sys));
    rig.sys.eq().run();
    EXPECT_EQ(rig.sys.proc(0).stats().counter("uncached_stores"), 1u);
    EXPECT_EQ(rig.sys.proc(0).stats().counter("uncached_loads"), 0u);
}

TEST(NiUnits, CniqShadowRefreshOnlyWhenQueueLooksFull)
{
    // Lazy pointers (Section 2.2): sending 3 messages into a 4-slot
    // send queue costs zero shadow refreshes; the 5th send needs one.
    NiRig rig("CNI16Q"); // 16 blocks = 4 slots
    TaskGroup group(rig.sys.eq());
    group.spawn([](Machine &sys) -> CoTask<void> {
        for (int i = 0; i < 3; ++i) {
            NetMsg m;
            m.src = 0;
            m.dst = 1;
            m.payload.assign(16, 1);
            co_await sys.ni(0).trySend(sys.proc(0), m, 0);
        }
    }(rig.sys));
    rig.sys.eq().run();
    EXPECT_EQ(rig.sys.ni(0).stats().counter("send_shadow_refreshes"), 0u);
}

TEST(NiUnits, CniqVirtualPollingTriggersOnSecondBlock)
{
    // Writing a 2-block message must let the device pull block 0 before
    // the message-ready signal (the block-1 invalidation is the proof).
    NiRig rig("CNI512Q");
    TaskGroup group(rig.sys.eq());
    group.spawn([](Machine &sys) -> CoTask<void> {
        NetMsg m;
        m.src = 0;
        m.dst = 1;
        m.payload.assign(100, 1); // 112-byte wire = 2 blocks
        co_await sys.ni(0).trySend(sys.proc(0), m, 0);
    }(rig.sys));
    rig.sys.eq().run();
    EXPECT_GE(rig.sys.ni(0).stats().counter("virtual_poll_triggers"), 1u);
}

TEST(NiUnits, CniqmOverflowWritesBackToMemory)
{
    // Flood node 1 without letting it consume: the 16-block device cache
    // must spill older slots to main memory automatically.
    NiRig rig("CNI16Qm");
    int sent = 0;
    rig.sys.spawn(0, [](Machine &sys, int &sent) -> CoTask<void> {
        std::uint8_t p[200];
        for (int i = 0; i < 12; ++i) {
            co_await sys.endpoint(0).send(1, 1, p, sizeof(p));
            ++sent;
        }
    }(rig.sys, sent));
    rig.sys.endpoint(1).onMessage(1, [](const UserMsg &) -> CoTask<void> {
        co_return;
    });
    rig.sys.run();
    rig.sys.eq().run();
    EXPECT_EQ(sent, 12);
    // More messages than device-cache slots arrived; writebacks happened.
    StatSet agg = rig.sys.aggregateStats();
    EXPECT_GT(agg.counter("txn_Writeback"), 0u);
    EXPECT_GT(agg.counter("recv_slots_written"), 4u);
}

TEST(NiUnits, CniqRejectsWhenSendQueueFull)
{
    NiRig rig("CNI16Q"); // 4 send slots
    int accepted = 0;
    TaskGroup group(rig.sys.eq());
    group.spawn([](Machine &sys, int &accepted) -> CoTask<void> {
        // Fill the send queue faster than the device can drain (the
        // destination's receive side is never polled, so the window and
        // queue back up).
        for (int i = 0; i < 32; ++i) {
            NetMsg m;
            m.src = 0;
            m.dst = 1;
            m.payload.assign(16, 2);
            if (co_await sys.ni(0).trySend(sys.proc(0), m, 0))
                ++accepted;
        }
    }(rig.sys, accepted));
    rig.sys.eq().runUntil(200'000);
    EXPECT_LT(accepted, 32);
    EXPECT_GT(rig.sys.ni(0).stats().counter("send_full"), 0u);
}

TEST(NiUnits, TaxonomyLabelsMatchDevices)
{
    for (const std::string &m : NiRegistry::instance().names()) {
        if (m == "NI2w")
            continue;
        Machine sys = Machine::describe().nodes(2).ni(m).build();
        EXPECT_EQ(sys.ni(0).modelName(), m);
    }
}

} // namespace
} // namespace cni
