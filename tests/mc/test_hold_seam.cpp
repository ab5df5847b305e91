/**
 * @file
 * The seam cnimc explores through: the Interconnect's hold hook, which
 * hands every in-flight protocol message (fabric messages and
 * node-local directory hops alike) to its owner instead of the event
 * queue, and the queue's clock-only Snapshot/restore.
 *
 *  - Mid-race snapshot/restore: capturing (clock, held messages,
 *    per-domain protocol state) at a stable point in the middle of a
 *    race and restoring it replays the rest of the race to the identical
 *    completions and protocol counters — the property the checker's
 *    backtracking stack depends on.
 *
 *  - Restore behind the L1 horizon: once the wheel has advanced past
 *    its 64K-tick L1 span, restoring an empty queue to an earlier tick
 *    must rebase the wheel, so new events file relative to the restored
 *    clock — the case the checker hits on every backtrack.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace cni
{
namespace
{

using test::blockAt;

/**
 * A two-node directory rig with the hold hook installed. Transactions
 * complete into `done` (tagged with the caller's id); a message is
 * released the way cnimc releases one: scheduled at max(now, arrival),
 * then the queue runs dry, so every call ends at a stable point.
 */
struct HoldRig : test::DirRig
{
    struct Held
    {
        Tick arrival;
        const char *label;
        NetMsg msg;
    };

    std::vector<Held> held; //!< in-flight messages, injection order
    std::vector<std::pair<int, SnoopResult>> done;

    explicit HoldRig(const DirParams &dp) : test::DirRig(dp)
    {
        net->setHoldHook([this](NetMsg m, Tick at, const char *label) {
            held.push_back(Held{at, label, std::move(m)});
        });
    }

    void
    start(int id, NodeId n, TxnKind kind, Addr a, bool device = false)
    {
        BusTxn t;
        t.kind = kind;
        t.addr = a;
        t.initiator = device ? Initiator::Device : Initiator::Processor;
        fab[n]->issue(t, [this, id](const SnoopResult &r) {
            done.emplace_back(id, r);
        });
        eq.run();
    }

    /**
     * Deliver the head of the highest-numbered channel (src * 2 + dst)
     * holding a message: per-channel FIFO, but not injection order.
     */
    void
    deliverOne()
    {
        auto pick = held.begin();
        for (auto it = held.begin(); it != held.end(); ++it) {
            const int ch = it->msg.src * 2 + it->msg.dst;
            const int best = pick->msg.src * 2 + pick->msg.dst;
            if (ch > best)
                pick = it;
        }
        eq.scheduleAt(std::max(eq.now(), pick->arrival),
                      [this, m = std::move(pick->msg)]() mutable {
                          net->deliverHeld(std::move(m));
                      });
        held.erase(pick);
        eq.run();
    }

    void
    drain()
    {
        while (!held.empty())
            deliverOne();
    }

    std::vector<std::uint64_t>
    counters() const
    {
        std::vector<std::uint64_t> out;
        for (const char *key :
             {"protocol_msgs", "getS", "getM", "upgrades", "local_home",
              "remote_home", "home_queued", "fwds", "invs",
              "memory_supplies", "cache_supplies", "upgrade_conversions"})
            out.push_back(counter(key));
        return out;
    }
};

TEST(HoldSeam, MidRaceSnapshotRestoreReplaysTheRestExactly)
{
    DirParams dp;
    dp.hops = 3;
    HoldRig rig(dp);
    const Addr remote = blockAt(1); // homed at node 1
    const Addr local = blockAt(2);  // homed at node 0: node-local hops

    // Prime an owner of the remote block.
    rig.start(0, 0, TxnKind::ReadExclusive, remote);
    rig.drain();
    ASSERT_EQ(rig.done.size(), 1u);
    rig.done.clear();

    // Race three transactions: a device GetS that will probe the
    // owner, a processor Upgrade of the same block, and a device GetM
    // of a locally homed block.
    rig.start(1, 0, TxnKind::ReadShared, remote, /*device=*/true);
    rig.start(2, 0, TxnKind::Upgrade, remote);
    rig.start(3, 0, TxnKind::ReadExclusive, local, /*device=*/true);
    ASSERT_TRUE(rig.eq.empty()) << "in-flight messages must be held";
    ASSERT_EQ(rig.held.size(), 3u);
    const auto localHop =
        std::find_if(rig.held.begin(), rig.held.end(),
                     [](const HoldRig::Held &h) {
                         return h.msg.src == h.msg.dst;
                     });
    ASSERT_NE(localHop, rig.held.end());
    EXPECT_STREQ(localHop->label, "GetM");

    // Mid-race: one message delivered, nothing completed yet.
    rig.deliverOne();
    ASSERT_TRUE(rig.done.empty());
    ASSERT_FALSE(rig.held.empty());

    const EventQueue::Snapshot eqSnap = rig.eq.snapshot();
    const std::vector<HoldRig::Held> heldSnap = rig.held;
    std::vector<std::shared_ptr<const void>> domSnap;
    for (auto &f : rig.fab)
        domSnap.push_back(f->mcSnapshot());
    const std::vector<std::uint64_t> before = rig.counters();

    rig.drain();
    const auto first = rig.done;
    const std::vector<std::uint64_t> firstEnd = rig.counters();
    ASSERT_EQ(first.size(), 3u);
    std::string why;
    EXPECT_TRUE(rig.fab[0]->mcQuiescent(&why)) << why;
    EXPECT_TRUE(rig.fab[1]->mcQuiescent(&why)) << why;

    // Rewind and run the identical remainder again. Timing state (the
    // node port, fabric link reservations) is deliberately outside the
    // snapshot — the checker's fingerprints exclude ticks — so the
    // protocol outcome is what must replay identically.
    rig.eq.restore(eqSnap);
    EXPECT_EQ(rig.eq.now(), eqSnap.curTick);
    rig.held = heldSnap;
    for (std::size_t n = 0; n < rig.fab.size(); ++n)
        rig.fab[n]->mcRestore(domSnap[n]);
    rig.done.clear();
    rig.drain();

    ASSERT_EQ(rig.done.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        const SnoopResult &a = first[i].second;
        const SnoopResult &b = rig.done[i].second;
        EXPECT_EQ(rig.done[i].first, first[i].first) << "completion " << i;
        EXPECT_EQ(b.cacheSupplied, a.cacheSupplied) << "completion " << i;
        EXPECT_EQ(b.sharedCopy, a.sharedCopy) << "completion " << i;
        EXPECT_EQ(b.ownershipTransferred, a.ownershipTransferred)
            << "completion " << i;
        EXPECT_EQ(b.upgradeFilled, a.upgradeFilled) << "completion " << i;
        EXPECT_EQ(b.data, a.data) << "completion " << i;
    }
    const std::vector<std::uint64_t> replayEnd = rig.counters();
    for (std::size_t k = 0; k < before.size(); ++k) {
        EXPECT_EQ(replayEnd[k] - firstEnd[k], firstEnd[k] - before[k])
            << "counter " << k;
    }
    EXPECT_TRUE(rig.fab[0]->mcQuiescent(&why)) << why;
    EXPECT_TRUE(rig.fab[1]->mcQuiescent(&why)) << why;
}

TEST(HoldSeam, RestoreRebasesTheWheelBehindTheL1Horizon)
{
    EventQueue eq;
    eq.scheduleAt(100, [] {});
    eq.run();
    const EventQueue::Snapshot snap = eq.snapshot();

    // Run far past the 64K-tick L1 span: the wheel rebases out there.
    eq.scheduleAt(200000, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 200000u);

    // Rewind, as the checker does on every backtrack, and schedule into
    // every residence band relative to the restored clock.
    eq.restore(snap);
    EXPECT_EQ(eq.now(), 100u);
    const std::vector<Tick> deltas = {0, 3, 255, 300, 20000, 70000, 150000};
    std::vector<Tick> ran;
    for (auto it = deltas.rbegin(); it != deltas.rend(); ++it)
        eq.scheduleIn(*it, [&ran, &eq] { ran.push_back(eq.now()); });
    EXPECT_EQ(eq.nextTick(), 100u);
    eq.run();

    std::vector<Tick> want;
    for (Tick d : deltas)
        want.push_back(100 + d);
    EXPECT_EQ(ran, want);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace cni
