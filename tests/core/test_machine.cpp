/**
 * @file
 * Machine-description API tests: NiRegistry lookup (including the
 * unknown-name error path), builder validation of the paper's
 * implementable/unimplementable NI-placement combinations (Section 5),
 * heterogeneous machines, the JSON report, and the heap a rebuilt
 * machine reuses.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "ni/registry.hpp"
#include "test_util.hpp"

namespace cni
{
namespace
{

TEST(NiRegistry, AllFivePaperModelsAreRegistered)
{
    auto &reg = NiRegistry::instance();
    for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"})
        EXPECT_TRUE(reg.known(m)) << m;
    EXPECT_GE(reg.names().size(), 5u);
}

TEST(NiRegistry, TraitsDescribeTheTaxonomy)
{
    auto &reg = NiRegistry::instance();
    ASSERT_NE(reg.traits("NI2w"), nullptr);
    EXPECT_FALSE(reg.traits("NI2w")->coherent);
    EXPECT_FALSE(reg.traits("NI2w")->queueBased);
    EXPECT_TRUE(reg.traits("CNI4")->coherent);
    EXPECT_FALSE(reg.traits("CNI4")->queueBased);
    EXPECT_TRUE(reg.traits("CNI512Q")->queueBased);
    EXPECT_FALSE(reg.traits("CNI512Q")->memoryHomedRecv);
    EXPECT_TRUE(reg.traits("CNI16Qm")->memoryHomedRecv);
}

TEST(NiRegistry, UnknownNameHasNoTraits)
{
    auto &reg = NiRegistry::instance();
    EXPECT_FALSE(reg.known("NI9000"));
    EXPECT_EQ(reg.traits("NI9000"), nullptr);
}

TEST(NiRegistryDeathTest, BuildingAnUnknownModelIsFatal)
{
    // A configuration error names the input at fault, not a source line.
    EXPECT_EXIT(Machine::describe().nodes(2).ni("NI9000").build(),
                ::testing::ExitedWithCode(1),
                "^fatal: invalid machine description NI9000/memory-bus: "
                "unknown NI model 'NI9000'");
}

// ---- builder validation: the Section 5 implementability cases ----

TEST(MachineBuilder, RejectsCoherentNiOnCacheBus)
{
    std::string why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .ni("CNI4")
                     .placement(NiPlacement::CacheBus)
                     .valid(&why));
    EXPECT_NE(why.find("cache bus"), std::string::npos) << why;
    // NI2w is the one design that can live there.
    EXPECT_TRUE(Machine::describe()
                    .nodes(2)
                    .ni("NI2w")
                    .placement(NiPlacement::CacheBus)
                    .valid());
}

TEST(MachineBuilder, RejectsMemoryHomedQueuesAcrossTheIoBus)
{
    std::string why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .ni("CNI16Qm")
                     .placement(NiPlacement::IoBus)
                     .valid(&why));
    EXPECT_NE(why.find("I/O bus"), std::string::npos) << why;
    EXPECT_TRUE(Machine::describe()
                    .nodes(2)
                    .ni("CNI512Q")
                    .placement(NiPlacement::IoBus)
                    .valid());
}

TEST(MachineBuilder, RejectsSnarfingWithoutMemoryHomedQueues)
{
    std::string why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .ni("NI2w")
                     .placement(NiPlacement::CacheBus)
                     .snarfing()
                     .valid(&why));
    EXPECT_FALSE(
        Machine::describe().nodes(2).ni("CNI16Q").snarfing().valid(&why));
    EXPECT_TRUE(
        Machine::describe().nodes(2).ni("CNI16Qm").snarfing().valid());
}

TEST(MachineBuilder, ValidationSeesCniqOverrideHoming)
{
    // A cniq() override can re-home the receive queue; validation must
    // judge the effective device, not the model name's static traits.
    CniqConfig qc = CniqConfig::cni512q();
    qc.recvHomeMemory = true;
    std::string why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .ni("CNI512Q")
                     .placement(NiPlacement::IoBus)
                     .cniq(qc)
                     .valid(&why))
        << why;
    EXPECT_TRUE(Machine::describe()
                    .nodes(2)
                    .ni("CNI512Q")
                    .snarfing()
                    .cniq(qc)
                    .valid(&why))
        << why;
    // Non-CNIiQ models would silently ignore the override: reject it.
    EXPECT_FALSE(
        Machine::describe().nodes(2).ni("CNI4").cniq(qc).valid(&why));
    EXPECT_NE(why.find("CNIiQ"), std::string::npos) << why;
}

TEST(MachineBuilder, RejectsMultipleContextsOutsideTheCniqFamily)
{
    std::string why;
    EXPECT_FALSE(
        Machine::describe().nodes(2).ni("NI2w").contexts(2).valid(&why));
    EXPECT_FALSE(
        Machine::describe().nodes(2).ni("CNI4").contexts(2).valid(&why));
    EXPECT_TRUE(
        Machine::describe().nodes(2).ni("CNI512Q").contexts(2).valid());
}

TEST(MachineBuilder, RejectsOutOfRangeOverridesAndBadCounts)
{
    std::string why;
    EXPECT_FALSE(Machine::describe().nodes(0).valid(&why));
    EXPECT_FALSE(
        Machine::describe().nodes(2).nodeNi(5, "CNI4").valid(&why));
    EXPECT_FALSE(
        Machine::describe().nodes(2).contexts(0).valid(&why));
}

TEST(MachineBuilder, RejectsUnboundedFabricKnobs)
{
    // Library callers get the same structured error the CLI and the
    // daemon do, instead of a wrapped-around tick aborting the run.
    std::string why;
    EXPECT_FALSE(Machine::describe().netLatency(UINT64_MAX).valid(&why));
    EXPECT_NE(why.find("netLatency"), std::string::npos) << why;
    EXPECT_FALSE(Machine::describe().netRetry(UINT64_MAX).valid(&why));
    EXPECT_NE(why.find("netRetry"), std::string::npos) << why;
    EXPECT_FALSE(Machine::describe()
                     .net("mesh")
                     .linkBandwidth(SIZE_MAX)
                     .valid(&why));
    EXPECT_NE(why.find("linkBandwidth"), std::string::npos) << why;
    EXPECT_FALSE(Machine::describe().window(kMaxWindow + 1).valid(&why));
    EXPECT_NE(why.find("window"), std::string::npos) << why;
    EXPECT_TRUE(Machine::describe()
                    .netLatency(kMaxNetCycles)
                    .netRetry(kMaxNetCycles)
                    .linkBandwidth(kMaxLinkBw)
                    .window(kMaxWindow)
                    .valid(&why))
        << why;
}

TEST(MachineBuilder, PerNodeOverridesAreOrderIndependent)
{
    // The global default applies even when set after a node override.
    const MachineSpec spec = Machine::describe()
                                 .nodes(4)
                                 .nodeNi(3, "CNI4")
                                 .ni("CNI16Q")
                                 .contexts(2)
                                 .nodeContexts(3, 1)
                                 .spec();
    EXPECT_EQ(spec.node(0).ni, "CNI16Q");
    EXPECT_EQ(spec.node(0).contexts, 2);
    EXPECT_EQ(spec.node(3).ni, "CNI4");
    EXPECT_EQ(spec.node(3).contexts, 1);
    EXPECT_TRUE(spec.heterogeneous());
    EXPECT_TRUE(spec.valid());
}

TEST(MachineBuilder, LabelNamesEveryDistinctModel)
{
    EXPECT_EQ(Machine::describe().ni("CNI16Qm").spec().label(),
              "CNI16Qm/memory-bus");
    EXPECT_EQ(Machine::describe()
                  .ni("CNI16Qm")
                  .snarfing()
                  .spec()
                  .label(),
              "CNI16Qm/memory-bus+snarf");
    EXPECT_EQ(Machine::describe()
                  .nodes(4)
                  .ni("CNI16Q")
                  .nodeNi(2, "CNI4")
                  .spec()
                  .label(),
              "CNI16Q+CNI4/memory-bus");
}

// ---- heterogeneous machines -------------------------------------------

TEST(Machine, HeterogeneousNiModelsExchangeMessages)
{
    // One machine, two different coherent NI designs on the memory bus:
    // node 0 drives a CNI16Qm, node 1 a CNI4. Ping-pong across them.
    Machine m = Machine::describe()
                    .nodes(2)
                    .ni("CNI16Qm")
                    .nodeNi(1, "CNI4")
                    .build();
    EXPECT_EQ(m.ni(0).modelName(), "CNI16Qm");
    EXPECT_EQ(m.ni(1).modelName(), "CNI4");

    Endpoint &e0 = m.endpoint(0);
    Endpoint &e1 = m.endpoint(1);
    int pongs = 0;
    std::vector<std::uint8_t> seen;
    e1.onMessage(1, [&](const UserMsg &u) -> CoTask<void> {
        co_await e1.send(0, 2, u.payload.data(), u.payload.size());
    });
    e0.onMessage(2, [&](const UserMsg &u) -> CoTask<void> {
        seen = u.payload;
        ++pongs;
        co_return;
    });
    m.spawn(0, [](Endpoint &e0, int &pongs) -> CoTask<void> {
        std::uint8_t p[96];
        for (std::size_t i = 0; i < sizeof(p); ++i)
            p[i] = std::uint8_t(i ^ 0x5a);
        for (int r = 0; r < 4; ++r) {
            co_await e0.send(1, 1, p, sizeof(p));
            const int want = r + 1;
            co_await e0.pollUntil([&] { return pongs >= want; });
        }
    }(e0, pongs));
    // Node 0 counts the pongs: node 1 must poll each time.
    m.spawn(1, [](Endpoint &e1, int *pongs) -> CoTask<void> {
        co_await e1.pollEachUntil([=] { return *pongs >= 4; });
    }(e1, &pongs));
    m.run();

    EXPECT_EQ(pongs, 4);
    ASSERT_EQ(seen.size(), 96u);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], std::uint8_t(i ^ 0x5a));
}

TEST(Machine, HeterogeneousValidationChecksEveryNode)
{
    // The override, not just the default, must satisfy the placement
    // rule: CNI16Qm on node 1 cannot cross the I/O bus.
    std::string why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .ni("CNI512Q")
                     .placement(NiPlacement::IoBus)
                     .nodeNi(1, "CNI16Qm")
                     .valid(&why));
    EXPECT_NE(why.find("node 1"), std::string::npos) << why;
}

// ---- reports -----------------------------------------------------------

TEST(Machine, ReportCarriesConfigAndStats)
{
    Machine m = Machine::describe()
                    .nodes(2)
                    .ni("CNI16Q")
                    .nodeNi(1, "CNI4")
                    .build();
    int got = 0;
    m.endpoint(1).onMessage(1, [&](const UserMsg &) -> CoTask<void> {
        ++got;
        co_return;
    });
    m.spawn(0, [](Endpoint &e) -> CoTask<void> {
        std::uint8_t p[32] = {};
        co_await e.send(1, 1, p, sizeof(p));
    }(m.endpoint(0)));
    m.spawn(1, [](Endpoint &e, int *got) -> CoTask<void> {
        co_await e.pollUntil([=] { return *got >= 1; });
    }(m.endpoint(1), &got));
    m.run();

    const std::string json = m.report();
    EXPECT_NE(json.find("\"label\":\"CNI16Q+CNI4/memory-bus\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"heterogeneous\":true"), std::string::npos);
    EXPECT_NE(json.find("\"ni\":\"CNI4\""), std::string::npos);
    EXPECT_NE(json.find("\"workload_done\":true"), std::string::npos);
    EXPECT_NE(json.find("\"user_sends\":1"), std::string::npos);
    // Balanced braces — the writer closed everything it opened.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

// ---- spec plain-data semantics ------------------------------------------
// (The deprecated SystemConfig/System shim is gone; MachineSpec itself
// must keep the copy-without-losing-fields property it guaranteed.)

TEST(MachineSpecData, CopiesWithoutLosingFields)
{
    MachineSpec spec;
    spec.numNodes = 2;
    spec.defaults.ni = "CNI512Q";
    spec.defaults.contexts = 2;
    spec.defaults.cniq = CniqConfig::cni512q();
    spec.defaults.cniq->lazySendHead = false;
    spec.coherence = "snoop";

    const MachineSpec copy = spec; // implicit copy: no hand-rolled ctor
    EXPECT_EQ(copy.numNodes, 2);
    EXPECT_EQ(copy.defaults.ni, "CNI512Q");
    EXPECT_EQ(copy.defaults.contexts, 2);
    ASSERT_TRUE(copy.defaults.cniq.has_value());
    EXPECT_FALSE(copy.defaults.cniq->lazySendHead);
    EXPECT_TRUE(copy.valid());

    Machine m(copy);
    EXPECT_EQ(m.numNodes(), 2);
    EXPECT_EQ(m.ni(0).modelName(), "CNI512Q");
}

std::uint64_t
minorFaults()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return std::uint64_t(u.ru_minflt);
}

/**
 * A rebuilt machine reuses the heap its predecessor freed. Coroutine
 * frames live in the frame pool, so a teardown frees one contiguous
 * region at the top of the heap; without the pool's trim policy glibc
 * hands it back to the kernel and the next build faults it in again.
 * Over these 20 builds of Figure 8's four machine configurations that
 * was about 600 minor faults, against 0-3 before frames were pooled.
 */
TEST(Machine, RebuildsReuseTheHeap)
{
#ifdef CNI_ALLOC_SANITIZED
    GTEST_SKIP() << "the sanitizer owns the heap";
#endif
    const auto build = [](int i) {
        static const std::pair<const char *, NiPlacement> kConfigs[] = {
            {"NI2w", NiPlacement::MemoryBus},
            {"CNI4", NiPlacement::MemoryBus},
            {"CNI16Qm", NiPlacement::MemoryBus},
            {"CNI512Q", NiPlacement::IoBus}};
        const auto &[ni, placement] = kConfigs[i % 4];
        return Machine::describe().nodes(16).ni(ni).placement(placement)
            .build();
    };
    for (int i = 0; i < 4; ++i)
        build(i);
    const std::uint64_t before = minorFaults();
    for (int i = 0; i < 20; ++i)
        build(i);
    EXPECT_LT(minorFaults() - before, 50u);
}

} // namespace
} // namespace cni
