/**
 * @file
 * Deterministic race-window tests for the directory v2 protocol, in the
 * style of test_fabric's bridge_conflicts: scripted agents, simultaneous
 * initiation, exact message/counter assertions.
 *
 * Covered windows:
 *  - 3-hop Fwd in flight vs an owner writeback: the probe finds a stale
 *    owner ("no copy"), the home falls back to the 4-hop memory supply,
 *    and the queued writeback self-heals — exact hop counts for both
 *    the clean 3-hop path and the fallback.
 *  - Sparse-directory recall vs a racing Upgrade on the victim block:
 *    the Upgrade serializes behind the recall at the home, the recall
 *    retry evicts a second way, and both transactions complete.
 *  - Recall of a dirty owner: the block is pulled home and absorbed
 *    (dir_recall_writebacks), address-only for clean sharers.
 */

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace cni
{
namespace
{

using test::blockAt;
using test::DirRig;

TEST(DirectoryRaces, ThreeHopOwnerSupplySkipsTheDataResend)
{
    DirParams dp;
    dp.hops = 3;
    DirRig rig(dp);
    const Addr b = blockAt(1); // home: node 1

    // Prime: node 0's device takes ownership (GetM through the remote
    // home; memory supplies).
    rig.run(0, TxnKind::ReadExclusive, b, /*device=*/true);
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 1u);

    const std::uint64_t msgs0 = rig.counter("protocol_msgs");
    // The owner supplies and keeps a copy.
    rig.dev[0].reply = SnoopReply{true, true, false, false, 0};

    const SnoopResult r = rig.run(0, TxnKind::ReadShared, b);
    EXPECT_TRUE(r.cacheSupplied);
    EXPECT_TRUE(r.sharedCopy);

    // GetS (0->1), Fwd (1->0), then two parallel address-only returns:
    // the owner's FwdAck and — once the block landed — the requester's
    // FwdDone. The FwdData itself rides the node-local loopback
    // (requester and owner share node 0) and the home never re-sends
    // the data: four fabric messages, none carrying the block, against
    // 4-hop's four with two block transfers.
    EXPECT_EQ(rig.counter("protocol_msgs") - msgs0, 4u);
    EXPECT_EQ(rig.counter("fwd3_supplies"), 1u);
    EXPECT_EQ(rig.counter("fwds"), 1u);
    EXPECT_EQ(rig.counter("probes_fwd"), 1u);
    EXPECT_EQ(rig.counter("cache_supplies"), 1u);
    ASSERT_EQ(rig.dev[0].seen.size(), 1u);
    EXPECT_EQ(rig.dev[0].seen[0].kind, TxnKind::ReadShared);
}

TEST(DirectoryRaces, ThreeHopCompletesTheRequesterSooner)
{
    auto complete = [](int hops) {
        DirParams dp;
        dp.hops = hops;
        DirRig rig(dp);
        const Addr b = blockAt(1);
        rig.run(0, TxnKind::ReadExclusive, b, /*device=*/true);
        const std::uint64_t msgs0 = rig.counter("protocol_msgs");
        rig.dev[0].reply = SnoopReply{true, true, false, false, 0};
        const Tick start = rig.eq.now();
        // Measure at the requester's completion, not queue drain: the
        // 3-hop FwdDone confirmation propagates after `done` fires and
        // is off the critical path.
        Tick doneAt = 0;
        BusTxn t;
        t.kind = TxnKind::ReadShared;
        t.addr = b;
        rig.fab[0]->procIssue(
            t, [&](const SnoopResult &) { doneAt = rig.eq.now(); });
        rig.eq.run();
        return std::pair<std::uint64_t, Tick>{
            rig.counter("protocol_msgs") - msgs0, doneAt - start};
    };
    const auto [msgs4, cycles4] = complete(4);
    const auto [msgs3, cycles3] = complete(3);
    EXPECT_EQ(msgs4, 4u); // GetS, Fwd, FwdAck(+block), Grant(+block)
    EXPECT_EQ(msgs3, 4u); // GetS, Fwd, FwdAck, FwdDone — address-only
    // The 3-hop path saves the block's fabric traversals outright.
    EXPECT_LT(cycles3, cycles4);
}

TEST(DirectoryRaces, HomeHoldsTheBlockUntilFwdDataLands)
{
    // The 3-hop race window this protocol closes: without the FwdDone
    // confirmation the home would release the entry on the owner's
    // address-only ack, and a queued invalidation could overtake the
    // block-carrying FwdData still in flight. Here a GetM for the same
    // block chases the GetS; its Inv probe must reach the (scripted)
    // cache only after the forwarded block was installed — i.e. the
    // probe count stays serialized behind the requester's completion.
    DirParams dp;
    dp.hops = 3;
    DirRig rig(dp);
    const Addr b = blockAt(1);
    rig.run(0, TxnKind::ReadExclusive, b, /*device=*/true);
    rig.dev[0].reply = SnoopReply{true, true, false, false, 0};
    rig.proc[0].reply = SnoopReply{true, false, false, false, 0};

    Tick getsDone = 0, invProbeAt = 0, getmDone = 0;
    BusTxn gets;
    gets.kind = TxnKind::ReadShared;
    gets.addr = b;
    BusTxn getm;
    getm.kind = TxnKind::ReadExclusive;
    getm.addr = b;
    getm.initiator = Initiator::Device;
    rig.fab[0]->procIssue(
        gets, [&](const SnoopResult &) { getsDone = rig.eq.now(); });
    rig.fab[0]->deviceIssue(
        getm, [&](const SnoopResult &) { getmDone = rig.eq.now(); });
    rig.eq.run();
    for (std::size_t i = 0; i < rig.proc[0].seen.size(); ++i) {
        if (rig.proc[0].seen[i].kind == TxnKind::ReadExclusive)
            invProbeAt = rig.proc[0].seenAt[i];
    }

    EXPECT_GT(getsDone, 0u);
    EXPECT_GT(getmDone, 0u);
    EXPECT_GT(invProbeAt, 0u);      // the chasing GetM did probe the cache
    EXPECT_GT(invProbeAt, getsDone); // ...only after the block landed
    EXPECT_GT(getmDone, getsDone);
    EXPECT_EQ(rig.counter("home_queued"), 1u);
}

TEST(DirectoryRaces, FwdInFlightVsOwnerWritebackFallsBackAndHeals)
{
    DirParams dp;
    dp.hops = 3;
    DirRig rig(dp);
    const Addr b = blockAt(1);

    rig.run(0, TxnKind::ReadExclusive, b, /*device=*/true);
    const std::uint64_t msgs0 = rig.counter("protocol_msgs");

    // The owner's writeback is already leaving: the Fwd probe will find
    // no copy.
    rig.dev[0].reply = SnoopReply{false, false, false, false, 0};

    // Same-cycle initiation: the processor's GetS wins the node port
    // (address phase first), the device's writeback follows it out.
    SnoopResult getsResult;
    Tick getsDone = 0, wbDone = 0;
    BusTxn gets;
    gets.kind = TxnKind::ReadShared;
    gets.addr = b;
    BusTxn wb;
    wb.kind = TxnKind::Writeback;
    wb.addr = b;
    wb.initiator = Initiator::Device;
    rig.fab[0]->procIssue(gets, [&](const SnoopResult &r) {
        getsResult = r;
        getsDone = rig.eq.now();
    });
    rig.fab[0]->deviceIssue(
        wb, [&](const SnoopResult &) { wbDone = rig.eq.now(); });
    rig.eq.run();

    EXPECT_GT(getsDone, 0u);
    EXPECT_GT(wbDone, 0u);

    // The stale owner acked "no copy": no direct supply happened, the
    // home fell back to a memory-supplied Grant.
    EXPECT_FALSE(getsResult.cacheSupplied);
    EXPECT_EQ(rig.counter("fwd3_supplies"), 0u);
    EXPECT_EQ(rig.counter("probe_supplies"), 0u);
    EXPECT_EQ(rig.counter("fwds"), 1u);
    EXPECT_EQ(rig.counter("memory_supplies"), 2u); // prime GetM + fallback

    // The writeback reached the home while the GetS held the block and
    // serialized behind it — exactly one queued transaction — then was
    // absorbed against the already-cleared owner field (self-healing).
    EXPECT_EQ(rig.counter("home_queued"), 1u);
    EXPECT_EQ(rig.counter("writebacks"), 1u);

    // GetS, Fwd, FwdAck(no copy), Grant(+block), WB(+block), WbAck.
    EXPECT_EQ(rig.counter("protocol_msgs") - msgs0, 6u);

    // Final state: only the GetS requester remains tracked.
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 1u);
}

TEST(DirectoryRaces, RecallVsUpgradeOnTheVictimSerializesAtTheHome)
{
    DirParams dp;
    dp.entries = 4;
    dp.assoc = 4; // one set: every odd block of node 0 collides
    DirRig rig(dp);

    // Fill the set: four shared blocks, B0 serviced first (LRU victim).
    rig.proc[0].reply = SnoopReply{true, false, false, false, 0};
    for (int i = 0; i < 4; ++i)
        rig.run(0, TxnKind::ReadShared, blockAt(2 * i + 1));
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 4u);
    EXPECT_EQ(rig.counter("dir_evictions"), 0u);

    // Same-cycle initiation: a fifth allocation (forces a recall of B0)
    // races an Upgrade on B0 itself.
    Tick getsDone = 0, upDone = 0;
    BusTxn gets;
    gets.kind = TxnKind::ReadShared;
    gets.addr = blockAt(9);
    BusTxn up;
    up.kind = TxnKind::Upgrade;
    up.addr = blockAt(1);
    rig.fab[0]->procIssue(
        gets, [&](const SnoopResult &) { getsDone = rig.eq.now(); });
    rig.fab[0]->procIssue(
        up, [&](const SnoopResult &) { upDone = rig.eq.now(); });
    rig.eq.run();

    EXPECT_GT(getsDone, 0u);
    EXPECT_GT(upDone, 0u);

    // The Upgrade hit the victim while its recall was in flight and
    // queued at the home; serving it revived the entry, so the retried
    // allocation recalled a second way (B1) before fitting.
    EXPECT_EQ(rig.counter("home_queued"), 1u);
    EXPECT_EQ(rig.counter("dir_evictions"), 2u);
    EXPECT_EQ(rig.counter("dir_recalls"), 2u); // one clean sharer each
    EXPECT_EQ(rig.counter("dir_recall_writebacks"), 0u);
    EXPECT_EQ(rig.counter("upgrades"), 1u);
    // Recall probes: two invalidations applied to the caching agent.
    EXPECT_EQ(rig.counter("probes_inv"), 2u);

    // B0 (now owned via the Upgrade), B2, B3, and B4 remain; B1 was
    // evicted to make room.
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 4u);
}

TEST(DirectoryRaces, RecallOfADirtyOwnerPullsTheBlockHome)
{
    DirParams dp;
    dp.entries = 4;
    dp.assoc = 4;
    DirRig rig(dp);

    // B0: owned dirty by node 0's cache. B1..B3: clean sharers.
    rig.proc[0].reply = SnoopReply{true, true, false, false, 0};
    rig.run(0, TxnKind::ReadExclusive, blockAt(1));
    for (int i = 1; i < 4; ++i)
        rig.run(0, TxnKind::ReadShared, blockAt(2 * i + 1));

    // The fifth allocation recalls LRU B0; the dirty owner supplies and
    // memory absorbs the block.
    rig.run(0, TxnKind::ReadShared, blockAt(9));
    EXPECT_EQ(rig.counter("dir_evictions"), 1u);
    EXPECT_EQ(rig.counter("dir_recalls"), 1u);
    EXPECT_EQ(rig.counter("dir_recall_writebacks"), 1u);
    EXPECT_EQ(rig.counter("probe_supplies"), 1u);
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 4u);
}

TEST(DirectoryRacesDeathTest, UnroutableTransactionKindPanics)
{
    // Updates are probes the home sends; an agent never issues one. An
    // issued update is a simulator bug, so it aborts naming its source
    // line (a rejected input would exit 1 naming the input instead).
    DirRig rig;
    SnoopResult out;
    EXPECT_DEATH(rig.issue(0, TxnKind::Update, blockAt(1), &out),
                 "^panic: .*directory\\.cpp:[0-9]+: node0: unroutable "
                 "transaction kind");
}

} // namespace
} // namespace cni
