/**
 * @file
 * Node fabric / I/O bridge tests: routing, posted vs blocking semantics,
 * dual-bus occupancy, Table 2 cross-bus latencies, and every bus's
 * transactions reaching the machine's statistics.
 */

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "apps/em3d.hpp"
#include "bus/fabric.hpp"
#include "core/machine.hpp"
#include "mem/main_memory.hpp"

namespace cni
{
namespace
{

class FakeDevice : public BusAgent
{
  public:
    SnoopReply
    onBusTxn(const BusTxn &txn) override
    {
        seen.push_back(txn);
        seenAt.push_back(eq->now());
        SnoopReply r;
        if (NodeFabric::isNiAddr(txn.addr)) {
            r.isHome = true;
            r.data = 0x55;
        }
        return r;
    }

    bool isHome(Addr a) const override { return NodeFabric::isNiAddr(a); }
    const std::string &agentName() const override { return name_; }

    EventQueue *eq = nullptr;
    std::vector<BusTxn> seen;
    std::vector<Tick> seenAt;

  private:
    std::string name_ = "fakedev";
};

struct FabricRig
{
    EventQueue eq;
    NodeFabric fabric;
    MainMemory memory;
    FakeDevice dev;

    explicit FabricRig(NiPlacement p) : fabric(eq, "node", p)
    {
        fabric.membus().attach(&memory);
        dev.eq = &eq;
        fabric.niBus().attach(&dev);
    }

    Tick
    procOp(TxnKind k, Addr a)
    {
        Tick done = 0;
        BusTxn t;
        t.kind = k;
        t.addr = a;
        t.initiator = Initiator::Processor;
        fabric.procIssue(t, [&](const SnoopResult &) { done = eq.now(); });
        eq.run();
        return done;
    }

    Tick
    devOp(TxnKind k, Addr a)
    {
        Tick done = 0;
        BusTxn t;
        t.kind = k;
        t.addr = a;
        t.initiator = Initiator::Device;
        fabric.deviceIssue(t, [&](const SnoopResult &) { done = eq.now(); });
        eq.run();
        return done;
    }
};

TEST(Fabric, MemoryBusPlacementRoutesDirectly)
{
    FabricRig rig(NiPlacement::MemoryBus);
    EXPECT_EQ(rig.procOp(TxnKind::UncachedRead, kDevRegBase), 28u);
    EXPECT_EQ(rig.dev.seen.size(), 1u);
}

TEST(Fabric, CacheBusPlacementIsCheapAndPrivate)
{
    FabricRig rig(NiPlacement::CacheBus);
    EXPECT_EQ(rig.procOp(TxnKind::UncachedRead, kDevRegBase), 4u);
    // The memory bus was never touched.
    EXPECT_EQ(rig.fabric.membus().occupiedCycles(), 0u);
}

TEST(Fabric, IoBusBlockingReadHoldsBothBuses)
{
    FabricRig rig(NiPlacement::IoBus);
    EXPECT_EQ(rig.procOp(TxnKind::UncachedRead, kDevRegBase), 48u);
    // Blocking read: the memory bus is held across the I/O transaction.
    EXPECT_EQ(rig.fabric.membus().occupiedCycles(), 48u);
    EXPECT_EQ(rig.fabric.iobus()->occupiedCycles(), 48u);
}

TEST(Fabric, IoBusPostedWriteCompletesAtMemBusCost)
{
    FabricRig rig(NiPlacement::IoBus);
    const Tick done = rig.procOp(TxnKind::UncachedWrite, kDevRegBase);
    EXPECT_EQ(done, 12u); // posted: requester sees the memory-bus part
    rig.eq.run();
    // The forwarded transaction still reaches the device.
    ASSERT_EQ(rig.dev.seen.size(), 1u);
    EXPECT_EQ(rig.fabric.iobus()->occupiedCycles(), 32u);
}

TEST(Fabric, IoBusBlockReadTowardProcessorCosts76)
{
    FabricRig rig(NiPlacement::IoBus);
    EXPECT_EQ(rig.procOp(TxnKind::ReadShared, kDevMemBase), 76u);
}

TEST(Fabric, DeviceUpstreamPullCosts62)
{
    FabricRig rig(NiPlacement::IoBus);
    EXPECT_EQ(rig.devOp(TxnKind::ReadShared, kDevMemBase), 62u);
    // Memory bus participated (snooping the processor cache).
    EXPECT_GT(rig.fabric.membus().occupiedCycles(), 0u);
}

TEST(Fabric, DeviceUpstreamUpgradeIsPosted)
{
    FabricRig rig(NiPlacement::IoBus);
    const Tick done = rig.devOp(TxnKind::Upgrade, kDevMemBase);
    // Device resumes after the memory-bus invalidation plus I/O tail.
    EXPECT_GE(done, 12u);
    EXPECT_EQ(rig.fabric.iobus()->occupiedCycles(), 32u);
}

TEST(Fabric, RegularMemoryTrafficAvoidsTheBridge)
{
    FabricRig rig(NiPlacement::IoBus);
    EXPECT_EQ(rig.procOp(TxnKind::ReadShared, kMemBase + 0x100), 42u);
    EXPECT_EQ(rig.fabric.iobus()->occupiedCycles(), 0u);
    EXPECT_TRUE(rig.dev.seen.empty());
}

TEST(Fabric, ConcurrentCrossTrafficSerializes)
{
    FabricRig rig(NiPlacement::IoBus);
    Tick procDone = 0, devDone = 0;
    BusTxn pr;
    pr.kind = TxnKind::UncachedRead;
    pr.addr = kDevRegBase;
    BusTxn dv;
    dv.kind = TxnKind::ReadShared;
    dv.addr = kDevMemBase;
    dv.initiator = Initiator::Device;
    rig.fabric.procIssue(pr,
                         [&](const SnoopResult &) { procDone = rig.eq.now(); });
    rig.fabric.deviceIssue(dv,
                           [&](const SnoopResult &) { devDone = rig.eq.now(); });
    rig.eq.run();
    // Both complete; one waited for the other (total > max of singles).
    EXPECT_GT(procDone, 0u);
    EXPECT_GT(devDone, 0u);
    EXPECT_GE(std::max(procDone, devDone), 48u + 62u);
    EXPECT_GT(rig.fabric.stats().counter("bridge_conflicts") +
                  rig.fabric.stats().counter("upstream"),
              0u);
}

TEST(Fabric, SimultaneousBridgeInitiationIsCountedDeterministically)
{
    // The documented bridge_conflicts accounting: both sides of the
    // bridge initiate in the same cycle. The device's blocking pull
    // acquires the memory bus first (memory-bus-first order); the
    // processor's read then finds it held — exactly one conflict, every
    // run.
    FabricRig rig(NiPlacement::IoBus);
    BusTxn dv;
    dv.kind = TxnKind::ReadShared;
    dv.addr = kDevMemBase;
    dv.initiator = Initiator::Device;
    BusTxn pr;
    pr.kind = TxnKind::UncachedRead;
    pr.addr = kDevRegBase;
    pr.initiator = Initiator::Processor;

    Tick devDone = 0, procDone = 0;
    rig.fabric.deviceIssue(
        dv, [&](const SnoopResult &) { devDone = rig.eq.now(); });
    rig.fabric.procIssue(
        pr, [&](const SnoopResult &) { procDone = rig.eq.now(); });
    rig.eq.run();

    EXPECT_EQ(rig.fabric.stats().counter("bridge_conflicts"), 1u);
    EXPECT_EQ(rig.fabric.stats().counter("upstream"), 1u);
    EXPECT_EQ(rig.fabric.stats().counter("downstream"), 1u);
    // The winner completes at its solo cost; the loser serialized
    // behind the full cross transaction.
    EXPECT_EQ(devDone, 62u);
    EXPECT_EQ(procDone, 62u + 48u);

    // Same-cycle initiation from the processor side only: no conflict.
    FabricRig quiet(NiPlacement::IoBus);
    BusTxn lone = pr;
    Tick loneDone = 0;
    quiet.fabric.procIssue(
        lone, [&](const SnoopResult &) { loneDone = quiet.eq.now(); });
    quiet.eq.run();
    EXPECT_EQ(quiet.fabric.stats().counter("bridge_conflicts"), 0u);
    EXPECT_EQ(loneDone, 48u);
}

TEST(Fabric, InvalidConfigsAreRejected)
{
    // Verify the fabric builds each placement with the right buses.
    EventQueue eq;
    NodeFabric mem(eq, "m", NiPlacement::MemoryBus);
    EXPECT_EQ(mem.iobus(), nullptr);
    EXPECT_EQ(mem.cachebus(), nullptr);
    NodeFabric io(eq, "i", NiPlacement::IoBus);
    EXPECT_NE(io.iobus(), nullptr);
    NodeFabric cb(eq, "c", NiPlacement::CacheBus);
    EXPECT_NE(cb.cachebus(), nullptr);
}

/**
 * Every uncached load is counted as an UncachedRead on each bus it
 * holds: the memory bus or the cache bus, or both the I/O bus and the
 * memory bus across the bridge. A bus left out of NodeFabric::mergeStats
 * breaks the law on its placement.
 */
TEST(Fabric, UncachedReadsConserveUncachedLoads)
{
    Em3dParams p;
    p.graphNodes = 256;
    p.iterations = 3;
    for (const NiPlacement placement :
         {NiPlacement::MemoryBus, NiPlacement::IoBus, NiPlacement::CacheBus}) {
        std::uint64_t placementLoads = 0;
        for (const char *ni : {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"}) {
            const MachineSpec spec = Machine::describe()
                                         .nodes(4)
                                         .ni(ni)
                                         .placement(placement)
                                         .spec();
            if (!spec.valid())
                continue;
            SCOPED_TRACE(std::string(ni) + "/" + toString(placement));
            Machine m(spec);
            runEm3d(m, p);
            const StatSet s = m.aggregateStats();
            const std::uint64_t loads = s.counter("uncached_loads");
            const std::uint64_t perLoad =
                placement == NiPlacement::IoBus ? 2 : 1;
            EXPECT_EQ(s.counter("txn_UncachedRead"), loads * perLoad);
            placementLoads += loads;
        }
        EXPECT_GT(placementLoads, 0u) << toString(placement);
    }
}

} // namespace
} // namespace cni
