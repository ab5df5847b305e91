/**
 * @file
 * Macrobenchmark tests: every app completes deterministically on every
 * NI, produces the same application-level result (checksum) regardless
 * of the interconnect, and sends the expected traffic.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "apps/apps.hpp"
#include "ni/registry.hpp"

namespace cni
{
namespace
{

struct AppCase
{
    const char *name;
    std::string ni;
};

class AppsOnEveryNi
    : public ::testing::TestWithParam<AppCase>
{
};

MachineSpec
specFor(const char *m)
{
    // A smaller machine keeps tests quick.
    return Machine::describe().nodes(8).ni(m).spec();
}

TEST_P(AppsOnEveryNi, CompletesWithTraffic)
{
    const auto &pc = GetParam();
    AppResult r = runMacrobenchmark(pc.name, specFor(pc.ni.c_str()));
    EXPECT_GT(r.ticks, 0u);
    EXPECT_GT(r.userMsgs, 0u);
    EXPECT_GT(r.memBusOccupied, 0u);
}

std::vector<AppCase>
allCases()
{
    std::vector<AppCase> cases;
    for (const auto &name : macrobenchmarkNames()) {
        for (const std::string &ni : NiRegistry::instance().names())
            cases.push_back({name.c_str(), ni});
    }
    return cases;
}

std::string
appCaseName(const ::testing::TestParamInfo<AppCase> &info)
{
    return std::string(info.param.name) + "_" + info.param.ni;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppsOnEveryNi,
                         ::testing::ValuesIn(allCases()), appCaseName);

TEST(Apps, ChecksumIndependentOfInterconnect)
{
    // The application-level result must not depend on which NI carried
    // the messages — only the timing may change.
    for (const auto &name : macrobenchmarkNames()) {
        std::map<std::string, std::uint64_t> sums;
        for (const char *m : {"NI2w", "CNI512Q", "CNI16Qm"}) {
            AppResult r = runMacrobenchmark(name, specFor(m));
            sums[m] = r.checksum;
        }
        EXPECT_EQ(sums["NI2w"], sums["CNI512Q"]) << name;
        EXPECT_EQ(sums["NI2w"], sums["CNI16Qm"]) << name;
    }
}

TEST(Apps, DeterministicAcrossRuns)
{
    for (const auto &name : macrobenchmarkNames()) {
        AppResult a = runMacrobenchmark(name, specFor("CNI16Q"));
        AppResult b = runMacrobenchmark(name, specFor("CNI16Q"));
        EXPECT_EQ(a.ticks, b.ticks) << name;
        EXPECT_EQ(a.userMsgs, b.userMsgs) << name;
        EXPECT_EQ(a.checksum, b.checksum) << name;
    }
}

TEST(Apps, SpsolveCompletesAllElements)
{
    Machine sys(specFor("CNI512Q"));
    SpsolveParams p;
    p.elements = 500;
    AppResult r = runSpsolve(sys, p);
    EXPECT_EQ(r.checksum, 500u); // every DAG element completed
}

TEST(AppsDeathTest, SpsolveRefusesTheShardedKernel)
{
    // Every node counts completions in one shared variable, which the
    // sharded kernel's shards may not share.
    MachineSpec spec = specFor("CNI512Q");
    spec.threads = 1;
    Machine sys(spec);
    EXPECT_DEATH(runSpsolve(sys), "spsolve needs the serial kernel");
}

TEST(Apps, GaussBroadcastsEveryPivot)
{
    const MachineSpec spec = specFor("CNI512Q");
    Machine sys(spec);
    GaussParams p;
    p.pivots = 12;
    AppResult r = runGauss(sys, p);
    EXPECT_EQ(r.checksum, 12u); // node 1 saw all pivots
    // One-to-all broadcast: (nodes-1) messages per pivot + barrier.
    EXPECT_GE(r.userMsgs, std::uint64_t(12 * (spec.numNodes - 1)));
}

TEST(Apps, MoldynReductionRoundTotals)
{
    const MachineSpec spec = specFor("CNI16Qm");
    Machine sys(spec);
    MoldynParams p;
    p.iterations = 3;
    AppResult r = runMoldyn(sys, p);
    // Each node receives one chunk per round per iteration.
    EXPECT_EQ(r.checksum,
              std::uint64_t(3) * spec.numNodes * spec.numNodes);
}

TEST(Apps, AppbtHotSpotReceivesMoreRequests)
{
    Machine sys(specFor("CNI512Q"));
    AppbtParams p;
    p.iterations = 1;
    p.blocksPerNeighbor = 4;
    AppResult r = runAppbt(sys, p);
    EXPECT_GT(r.checksum, 0u);
}

TEST(Apps, Em3dUpdateCountMatchesGraph)
{
    Machine sys(specFor("CNI16Q"));
    Em3dParams p;
    p.iterations = 2;
    AppResult r = runEm3d(sys, p);
    // checksum = total remote updates received; must be the per-iteration
    // remote edge count times iterations (deterministic seed).
    EXPECT_GT(r.checksum, 0u);
    EXPECT_EQ(r.checksum % 2, 0u); // 2 iterations
}

} // namespace
} // namespace cni
