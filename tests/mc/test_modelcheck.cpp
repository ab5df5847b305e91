/**
 * @file
 * cnimc end-to-end: the checker exhausts every backend's 2-node/1-block
 * state space clean, to the pinned state, transition and endpoint
 * counts; explores deterministically; proves symmetry reduction and the
 * sparse recall path reachable — and, as its own self-check, finds the
 * seeded FwdDone-hold fault with its 12-step minimal counterexample,
 * whose replay reproduces the violation on a fresh rig and stays clean
 * once the fault is disarmed (the regression shape for every future
 * counterexample).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mc/checker.hpp"

namespace cni
{
namespace
{

McConfig
base(const std::string &backend)
{
    McConfig c;
    c.backend = backend;
    c.nodes = 2;
    c.blocks = 1;
    return c;
}

TEST(Cnimc, ExhaustsEveryBackendCleanTwoNodesOneBlock)
{
    // The exact size of each space is pinned: a change to how the
    // checker explores (what counts as a transition, how in-flight
    // messages are held, ordered or fingerprinted) must not move it.
    struct Case
    {
        const char *name;
        McConfig cfg;
        std::size_t visited, transitions, terminals, maxPark;
    };
    std::vector<Case> cases;
    cases.push_back({"snoop", base("snoop"), 24, 96, 24, 0});
    cases.push_back({"dir-full-4hop", base("directory"), 1288, 2224, 34, 1});
    {
        McConfig c = base("directory");
        c.dir.hops = 3;
        cases.push_back({"dir-full-3hop", c, 2194, 4082, 34, 1});
    }
    {
        McConfig c = base("directory");
        c.dir.entries = 2;
        c.dir.assoc = 2;
        cases.push_back({"dir-sparse2-4hop", c, 1288, 2224, 34, 1});
    }
    {
        McConfig c = base("directory");
        c.dir.entries = 2;
        c.dir.assoc = 2;
        c.dir.hops = 3;
        cases.push_back({"dir-sparse2-3hop", c, 2194, 4082, 34, 1});
    }
    cases.push_back({"dragon-full-4hop", base("dragon"), 1324, 2336, 34, 1});
    {
        // Threshold 1 maximizes flip churn: every absorbed update is
        // already one-from-saturation, so the kTouch/self-invalidate
        // interleavings all appear within the 1-block space.
        McConfig c = base("hybrid");
        c.dir.updThreshold = 1;
        cases.push_back({"hybrid-thr1", c, 48721, 91022, 1314, 1});
    }
    {
        McConfig c = base("hybrid");
        c.dir.updThreshold = 2;
        cases.push_back({"hybrid-thr2", c, 48891, 91362, 1319, 1});
    }

    for (const Case &tc : cases) {
        McChecker checker(tc.cfg);
        const McResult res = checker.check();
        EXPECT_TRUE(res.clean())
            << tc.name << ": " << res.violations.front();
        EXPECT_FALSE(res.truncated) << tc.name;
        EXPECT_EQ(res.visited, tc.visited) << tc.name;
        EXPECT_EQ(res.transitions, tc.transitions) << tc.name;
        EXPECT_EQ(res.terminals, tc.terminals) << tc.name;
        EXPECT_EQ(res.maxParkSeen, tc.maxPark) << tc.name;
    }
}

TEST(Cnimc, ExplorationIsDeterministic)
{
    McConfig cfg = base("directory");
    cfg.dir.hops = 3;
    McChecker a(cfg);
    const McResult ra = a.check();
    McChecker b(cfg);
    const McResult rb = b.check();
    EXPECT_EQ(ra.visited, rb.visited);
    EXPECT_EQ(ra.transitions, rb.transitions);
    EXPECT_EQ(ra.terminals, rb.terminals);
    EXPECT_EQ(ra.maxParkSeen, rb.maxParkSeen);
}

TEST(Cnimc, SymmetricBlockPlanGetsThePairImage)
{
    // Two blocks, one per node, both remote-homed: swapping the nodes
    // maps the plan onto itself, so the checker must fold the mirrored
    // half of the space. (Bounded run — the full 2-block space is for
    // overnight sweeps, not unit tests.)
    McConfig cfg = base("directory");
    cfg.blocks = 2;
    cfg.maxStates = 3000;
    McChecker checker(cfg);
    const McResult res = checker.check();
    EXPECT_EQ(res.symmetries, 2u);
    EXPECT_TRUE(res.clean());
}

TEST(Cnimc, SparseRecallPathExploredClean)
{
    // A one-entry directory with three blocks (two sharing a home)
    // forces eviction recalls and set-parking on many paths. Bounded-
    // exhaustive: every state within the cap must hold the invariants.
    McConfig cfg = base("directory");
    cfg.dir.entries = 1;
    cfg.dir.assoc = 1;
    cfg.blocks = 3;
    cfg.maxStates = 25000;
    McChecker checker(cfg);
    const McResult res = checker.check();
    EXPECT_TRUE(res.clean())
        << res.violations.front();
    EXPECT_TRUE(res.truncated); // the cap is the point of this config
    EXPECT_GE(res.visited, 25000u);
}

TEST(Cnimc, FindsSeededFwdDoneHoldBugAndReplays)
{
    McConfig buggy = base("directory");
    buggy.dir.hops = 3;
    buggy.seedBug = true;

    McChecker checker(buggy);
    const McResult found = checker.check();
    ASSERT_FALSE(found.clean())
        << "the seeded stale-FwdData window went undetected";
    EXPECT_EQ(found.trace.size(), 12u)
        << "counterexample should minimize to the 12-step schedule";
    EXPECT_EQ(found.violations.front(),
              "cache0 block 0: read-to-own filled a stale value");

    // The minimized trace is a replayable regression: a fresh rig with
    // the fault armed reproduces the violation step for step...
    McChecker replayBuggy(buggy);
    const McResult again = replayBuggy.replay(found.trace);
    EXPECT_FALSE(again.clean())
        << "minimized counterexample did not reproduce on replay";

    // ...and the production protocol (FwdDone hold enabled) runs the
    // same schedule — or its longest still-executable prefix — clean.
    McConfig fixed = buggy;
    fixed.seedBug = false;
    McChecker replayFixed(fixed);
    const McResult healed = replayFixed.replay(found.trace);
    EXPECT_TRUE(healed.clean())
        << healed.violations.front();
}

TEST(Cnimc, SeededBugLeavesFourHopUntouched)
{
    // The fault gates a 3-hop-only hold; the 4-hop protocol must stay
    // clean even with it armed — guards against the test hook bleeding
    // into unrelated paths.
    McConfig cfg = base("directory");
    cfg.seedBug = true;
    McChecker checker(cfg);
    const McResult res = checker.check();
    EXPECT_TRUE(res.clean()) << res.violations.front();
}

} // namespace
} // namespace cni
