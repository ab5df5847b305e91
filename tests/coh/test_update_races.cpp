/**
 * @file
 * Deterministic race-window tests for the update-based backends
 * ("dragon", "hybrid": coh/directory.hpp), in the style of
 * test_directory_races: scripted agents, simultaneous initiation,
 * exact message/counter assertions.
 *
 * Covered windows:
 *  - A write to a line with live copies pushes a word update instead of
 *    invalidating: the sharer stays registered, the writer's grant
 *    carries kSharersRemain (Sm install), exact hop counts.
 *  - Update vs a concurrent GetM on the same block: the home serializes
 *    the two writers, each update round probes exactly the other party,
 *    and both grants still report live sharers.
 *  - Update to a mid-eviction sharer: the probe finds no copy, the home
 *    counts a useless update and drops the agent, and the grant loses
 *    kSharersRemain (the writer installs plain Modified).
 *  - Hybrid mode flip during an in-flight update: the sharer
 *    self-invalidates instead of absorbing (invalidatedOnUpdate), the
 *    line falls back to invalidate behaviour, and a later re-read flips
 *    it back to update mode.
 */

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace cni
{
namespace
{

using test::blockAt;

/**
 * Both update backends build this fabric: hybrid's adaptation lives in
 * the sharers' caches, which the scripted agents stand in for.
 */
struct UpdateRig : test::DirRig
{
    UpdateRig() : DirRig(DirParams{}, /*pushUpdates=*/true) {}
};

TEST(UpdateRaces, WriteToALiveLinePushesAnUpdateAndKeepsTheSharer)
{
    UpdateRig rig;
    const Addr b = blockAt(1); // home: node 1

    // Prime: node 0's cache reads the block (memory supplies; sole copy,
    // so the directory records it as the owner / E install).
    rig.run(0, TxnKind::ReadShared, b);
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 1u);

    const std::uint64_t msgs0 = rig.counter("protocol_msgs");
    // The cache absorbs the pushed word and keeps its copy.
    rig.proc[0].reply = SnoopReply{true, false, false, false, false, 0};

    const SnoopResult r =
        rig.run(0, TxnKind::ReadExclusive, b, /*device=*/true);

    // The update round left a live copy: the writer must install Sm
    // (Owned), not Modified, and the old copy stays registered.
    EXPECT_TRUE(r.sharersRemain);
    EXPECT_TRUE(r.sharedCopy);
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 1u);

    // GetM (0->1), Update (1->0), UpdateAck (0->1), Grant+block (1->0):
    // same four hops as an invalidation round, but the probe carries the
    // written word and nobody loses a copy.
    EXPECT_EQ(rig.counter("protocol_msgs") - msgs0, 4u);
    EXPECT_EQ(rig.counter("updates_sent"), 1u);
    EXPECT_EQ(rig.counter("useless_updates"), 0u);
    EXPECT_EQ(rig.counter("invs"), 0u); // update backends never invalidate
    EXPECT_EQ(rig.counter("probes_inv"), 1u);
    ASSERT_EQ(rig.proc[0].seen.size(), 1u);
    EXPECT_EQ(rig.proc[0].seen[0].kind, TxnKind::Update);
}

TEST(UpdateRaces, UpdateVsConcurrentGetMSerializesAndBothKeepSharers)
{
    UpdateRig rig;
    const Addr b = blockAt(1);

    // Prime: both node-0 agents shared (the second GetS demotes the
    // E-clean first reader; the directory tracks two plain sharers).
    rig.proc[0].reply = SnoopReply{true, false, false, false, false, 0};
    rig.dev[0].reply = SnoopReply{true, false, false, false, false, 0};
    rig.run(0, TxnKind::ReadShared, b);
    rig.run(0, TxnKind::ReadShared, b, /*device=*/true);
    const std::uint64_t msgs0 = rig.counter("protocol_msgs");
    const std::size_t procSeen0 = rig.proc[0].seen.size();

    // Same-cycle initiation: the cache's Upgrade wins the node port
    // (address phase first), the device's GetM chases it to the home.
    SnoopResult upResult, getmResult;
    Tick upDone = 0, getmDone = 0;
    BusTxn up;
    up.kind = TxnKind::Upgrade;
    up.addr = b;
    BusTxn getm;
    getm.kind = TxnKind::ReadExclusive;
    getm.addr = b;
    getm.initiator = Initiator::Device;
    rig.fab[0]->procIssue(up, [&](const SnoopResult &r) {
        upResult = r;
        upDone = rig.eq.now();
    });
    rig.fab[0]->deviceIssue(getm, [&](const SnoopResult &r) {
        getmResult = r;
        getmDone = rig.eq.now();
    });
    rig.eq.run();

    EXPECT_GT(upDone, 0u);
    EXPECT_GT(getmDone, 0u);
    EXPECT_GT(getmDone, upDone); // the GetM serialized behind the Upgrade
    EXPECT_EQ(rig.counter("home_queued"), 1u);

    // Each writer's update round probed exactly the other party, and
    // both grants report a live copy: the Upgrade leaves the device a
    // sharer; the GetM demotes the fresh owner to a sharer in turn.
    EXPECT_TRUE(upResult.sharersRemain);
    EXPECT_TRUE(getmResult.sharersRemain);
    EXPECT_EQ(rig.counter("updates_sent"), 2u);
    EXPECT_EQ(rig.counter("useless_updates"), 0u);
    EXPECT_EQ(rig.counter("upgrades"), 1u);

    // Upgrade, Update, UpdateAck, Grant (address-only), then the queued
    // GetM, Update, UpdateAck, Grant+block: eight fabric messages.
    EXPECT_EQ(rig.counter("protocol_msgs") - msgs0, 8u);
    ASSERT_EQ(rig.dev[0].seen.size(), 1u);
    EXPECT_EQ(rig.dev[0].seen[0].kind, TxnKind::Update);
    ASSERT_EQ(rig.proc[0].seen.size(), procSeen0 + 1);
    EXPECT_EQ(rig.proc[0].seen.back().kind, TxnKind::Update);

    // Both copies are still tracked (owner + demoted sharer).
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 1u);
}

TEST(UpdateRaces, UpdateToAMidEvictionSharerIsUselessAndDropsIt)
{
    UpdateRig rig;
    const Addr b = blockAt(1);

    rig.proc[0].reply = SnoopReply{true, false, false, false, false, 0};
    rig.dev[0].reply = SnoopReply{true, false, false, false, false, 0};
    rig.run(0, TxnKind::ReadShared, b);
    rig.run(0, TxnKind::ReadShared, b, /*device=*/true);
    const std::uint64_t msgs0 = rig.counter("protocol_msgs");

    // The sharer's clean eviction is already in flight: the pushed
    // update will find no copy.
    rig.proc[0].reply = SnoopReply{false, false, false, false, false, 0};

    const SnoopResult r =
        rig.run(0, TxnKind::Upgrade, b, /*device=*/true);

    // The wasted push is counted, the stale sharer is dropped from the
    // directory, and — with nobody left holding data — the grant loses
    // kSharersRemain, so the writer installs plain Modified and later
    // writes are silent.
    EXPECT_FALSE(r.sharersRemain);
    EXPECT_EQ(rig.counter("updates_sent"), 1u);
    EXPECT_EQ(rig.counter("useless_updates"), 1u);
    EXPECT_EQ(rig.counter("mode_flips"), 0u);

    // Upgrade, Update, UpdateAck (no copy), Grant — the fallback costs
    // no extra hops.
    EXPECT_EQ(rig.counter("protocol_msgs") - msgs0, 4u);
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 1u); // writer only
}

TEST(UpdateRaces, HybridModeFlipDuringInFlightUpdateFallsBackToInvalidate)
{
    UpdateRig rig;
    const Addr b = blockAt(1);

    rig.proc[0].reply = SnoopReply{true, false, false, false, false, 0};
    rig.dev[0].reply = SnoopReply{true, false, false, false, false, 0};
    rig.run(0, TxnKind::ReadShared, b);
    rig.run(0, TxnKind::ReadShared, b, /*device=*/true);
    const std::uint64_t msgs0 = rig.counter("protocol_msgs");

    // The sharer's useless-update counter saturates against this very
    // probe: it self-invalidates instead of absorbing the word.
    SnoopReply flip;
    flip.invalidatedOnUpdate = true; // hadCopy stays false
    rig.proc[0].reply = flip;

    const SnoopResult r =
        rig.run(0, TxnKind::Upgrade, b, /*device=*/true);

    // The flip is counted where it happened (sharer node) and as a
    // useless update at the home; the writer installs plain Modified.
    EXPECT_FALSE(r.sharersRemain);
    EXPECT_EQ(rig.counter("mode_flips"), 1u);
    EXPECT_EQ(rig.counter("useless_updates"), 1u);
    EXPECT_EQ(rig.counter("updates_sent"), 1u);
    EXPECT_EQ(rig.counter("protocol_msgs") - msgs0, 4u);
    EXPECT_EQ(rig.fab[1]->trackedBlocks(), 1u);
    ASSERT_GE(rig.proc[0].seen.size(), 1u);
    EXPECT_EQ(rig.proc[0].seen.back().kind, TxnKind::Update);

    // Recovery: the flipped sharer starts reading again. Its GetS
    // re-registers it (the dirty Sm owner supplies), and the next write
    // pushes updates once more — the line is back in update mode.
    rig.proc[0].reply = SnoopReply{true, false, false, false, false, 0};
    rig.dev[0].reply = SnoopReply{true, true, false, false, false, 0};
    const SnoopResult rd = rig.run(0, TxnKind::ReadShared, b);
    EXPECT_TRUE(rd.cacheSupplied);

    const SnoopResult wr =
        rig.run(0, TxnKind::Upgrade, b, /*device=*/true);
    EXPECT_TRUE(wr.sharersRemain);
    EXPECT_EQ(rig.counter("updates_sent"), 2u);
    EXPECT_EQ(rig.counter("mode_flips"), 1u); // no new flip
}

} // namespace
} // namespace cni
