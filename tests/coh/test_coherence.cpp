/**
 * @file
 * Coherence-domain API tests: CoherenceRegistry lookup and traits,
 * builder validation of backend constraints (directory needs a routed
 * fabric / memory-bus placement / no snarfing), the snoop backend's
 * equivalence through the interface, and the fabric-routed MOESI
 * directory backend (correct home interleaving, cross-node
 * invalidation, full ping-pong workloads on mesh and torus, report
 * section, sharded-kernel determinism).
 */

#include <gtest/gtest.h>

#include <string>
#include <typeinfo>
#include <vector>

#include "bus/fabric.hpp"
#include "coh/directory.hpp"
#include "core/machine.hpp"
#include "core/microbench.hpp"

namespace cni
{
namespace
{

// ---- registry -----------------------------------------------------------

TEST(CoherenceRegistry, BuiltinBackendsAreRegistered)
{
    const auto &reg = CoherenceRegistry::instance();
    struct Row
    {
        const char *name;
        bool directory, updateProtocol, adaptiveUpdate;
    };
    for (const Row &r : {Row{"snoop", false, false, false},
                         Row{"directory", true, false, false},
                         Row{"dragon", true, true, false},
                         Row{"hybrid", true, true, true}}) {
        const CoherenceTraits *t = reg.traits(r.name);
        ASSERT_NE(t, nullptr) << r.name;
        EXPECT_EQ(t->directory, r.directory) << r.name;
        EXPECT_EQ(t->updateProtocol, r.updateProtocol) << r.name;
        EXPECT_EQ(t->adaptiveUpdate, r.adaptiveUpdate) << r.name;
    }
}

TEST(CoherenceRegistry, UnknownNameHasNoTraits)
{
    auto &reg = CoherenceRegistry::instance();
    EXPECT_FALSE(reg.known("mesi9000"));
    EXPECT_EQ(reg.traits("mesi9000"), nullptr);
}

TEST(CoherenceRegistryDeathTest, BuildingAnUnknownBackendIsFatal)
{
    EXPECT_EXIT(
        Machine::describe().nodes(2).coherence("mesi9000").build(),
        ::testing::ExitedWithCode(1), "unknown coherence backend");
}

// ---- builder validation -------------------------------------------------

TEST(CoherenceValidation, DirectoryNeedsARoutedFabric)
{
    std::string why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(4)
                     .coherence("directory")
                     .net("ideal")
                     .valid(&why));
    EXPECT_NE(why.find("routed"), std::string::npos) << why;
    for (const char *net : {"mesh", "torus", "xbar"}) {
        EXPECT_TRUE(Machine::describe()
                        .nodes(4)
                        .coherence("directory")
                        .net(net)
                        .valid(&why))
            << net << ": " << why;
    }
}

TEST(CoherenceValidation, DirectoryRejectsBridgedPlacements)
{
    std::string why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .ni("CNI4")
                     .coherence("directory")
                     .net("mesh")
                     .placement(NiPlacement::IoBus)
                     .valid(&why));
    EXPECT_NE(why.find("I/O"), std::string::npos) << why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .ni("NI2w")
                     .coherence("directory")
                     .net("mesh")
                     .placement(NiPlacement::CacheBus)
                     .valid(&why));
}

TEST(CoherenceValidation, DirectoryRejectsSnarfing)
{
    std::string why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .ni("CNI16Qm")
                     .coherence("directory")
                     .net("mesh")
                     .snarfing()
                     .valid(&why));
    EXPECT_NE(why.find("snarfing"), std::string::npos) << why;
}

TEST(CoherenceValidation, DirGeometryKnobsNeedADirectoryBackend)
{
    std::string why;
    // The snoop default has no directory for --dir-* knobs to shape.
    EXPECT_FALSE(Machine::describe().nodes(2).dirEntries(64).valid(&why));
    EXPECT_NE(why.find("geometry"), std::string::npos) << why;
    EXPECT_FALSE(Machine::describe().nodes(2).dirHops(3).valid(&why));
    // Geometry sanity regardless of backend.
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .coherence("directory")
                     .net("mesh")
                     .dirHops(5)
                     .valid(&why));
    EXPECT_NE(why.find("dirHops"), std::string::npos) << why;
    EXPECT_FALSE(Machine::describe()
                     .nodes(2)
                     .coherence("directory")
                     .net("mesh")
                     .dirEntries(10)
                     .dirAssoc(4)
                     .valid(&why));
    EXPECT_NE(why.find("multiple"), std::string::npos) << why;
    // The full matrix of sane settings builds.
    for (const int entries : {0, 8, 64}) {
        for (const int hops : {3, 4}) {
            EXPECT_TRUE(Machine::describe()
                            .nodes(2)
                            .coherence("directory")
                            .net("mesh")
                            .dirEntries(entries)
                            .dirAssoc(4)
                            .dirHops(hops)
                            .valid(&why))
                << entries << "/" << hops << ": " << why;
        }
    }
}

// ---- snoop backend through the interface --------------------------------

// Completion count lives in static storage so the handler lambdas
// (owned by the machine) never dangle a stack reference. Plain static,
// not thread_local: under the sharded kernel node 0's events may run on
// any pool worker, and all touches stay on node 0's shard (sequential),
// so one shared object is both correct and race-free.
static int pongsStorage;

void
pingPong(Machine &m, int rounds = 4)
{
    pongsStorage = 0;
    Endpoint &e0 = m.endpoint(0);
    Endpoint &e1 = m.endpoint(1);
    e1.onMessage(1, [&e1](const UserMsg &u) -> CoTask<void> {
        co_await e1.send(0, 2, u.payload.data(), u.payload.size());
    });
    e0.onMessage(2, [](const UserMsg &) -> CoTask<void> {
        ++pongsStorage;
        co_return;
    });
    m.spawn(0, [](Endpoint &e, int rounds) -> CoTask<void> {
        std::uint8_t p[96];
        for (std::size_t i = 0; i < sizeof(p); ++i)
            p[i] = std::uint8_t(i * 3);
        for (int r = 0; r < rounds; ++r) {
            co_await e.send(1, 1, p, sizeof(p));
            const int want = r + 1;
            co_await e.pollUntil([want] { return pongsStorage >= want; });
        }
    }(e0, rounds));
    // Node 0 counts the pongs: node 1 must poll each time.
    m.spawn(1, [](Endpoint &e, int rounds) -> CoTask<void> {
        co_await e.pollEachUntil([rounds] { return pongsStorage >= rounds; });
    }(e1, rounds));
    m.run();
    EXPECT_EQ(pongsStorage, rounds);
}

TEST(SnoopDomain, ExplicitSelectionMatchesTheDefaultByteForByte)
{
    // coherence("snoop") is the default spelled out: same machine, same
    // run, byte-identical report.
    Machine a = Machine::describe().nodes(2).ni("CNI16Qm").build();
    Machine b = Machine::describe()
                    .nodes(2)
                    .ni("CNI16Qm")
                    .coherence("snoop")
                    .build();
    EXPECT_EQ(typeid(a.coherence(0)), typeid(NodeFabric));
    pingPong(a);
    pingPong(b);
    EXPECT_EQ(a.report(), b.report());
}

// ---- directory backend --------------------------------------------------

TEST(DirectoryDomain, HomesInterleaveMemoryAndKeepDeviceSpaceLocal)
{
    Machine m = Machine::describe()
                    .nodes(4)
                    .ni("CNI4")
                    .coherence("directory")
                    .net("mesh")
                    .build();
    auto *d2 = dynamic_cast<DirectoryFabric *>(&m.coherence(2));
    ASSERT_NE(d2, nullptr);
    EXPECT_EQ(typeid(*d2), typeid(DirectoryFabric));
    // Main memory: block-interleaved round-robin across the homes.
    for (int blk = 0; blk < 8; ++blk) {
        EXPECT_EQ(d2->homeNodeOf(kMemBase + Addr(blk) * kBlockBytes),
                  NodeId(blk % 4));
    }
    // NI space is homed at its own node, from every node's view.
    EXPECT_EQ(d2->homeNodeOf(kDevRegBase), 2);
    EXPECT_EQ(d2->homeNodeOf(kDevMemBase), 2);
    auto *d0 = dynamic_cast<DirectoryFabric *>(&m.coherence(0));
    ASSERT_NE(d0, nullptr);
    EXPECT_EQ(d0->homeNodeOf(kDevMemBase), 0);
}

TEST(DirectoryDomain, PrivateSpacesNeverFalselyShareAcrossNodes)
{
    // The simulator's address map is per-node private, so two nodes
    // storing to the *same local address* are touching different global
    // physical blocks: their requests may travel to remote homes (the
    // global space is interleaved), but they must never probe each
    // other — no false sharing between private working sets.
    Machine m = Machine::describe()
                    .nodes(2)
                    .ni("CNI4")
                    .coherence("directory")
                    .net("mesh")
                    .build();
    const Addr privateAddr = kMemBase + 5 * kBlockBytes; // odd: remote
                                                         // home for n0
    for (NodeId n = 0; n < 2; ++n) {
        m.spawn(n, [](Machine &m, NodeId n, Addr a) -> CoTask<void> {
            for (int i = 0; i < 8; ++i) {
                co_await m.proc(n).write64(a, (std::uint64_t(n) << 32) | i);
                co_await m.proc(n).delay(50);
            }
        }(m, n, privateAddr));
    }
    m.run();

    const StatSet agg = m.aggregateStats();
    EXPECT_EQ(agg.counter("probes_inv"), 0u); // nobody to invalidate
    EXPECT_EQ(agg.counter("probes_fwd"), 0u);
    EXPECT_GT(agg.counter("remote_home"), 0u); // homes still interleave
    EXPECT_GT(agg.counter("protocol_msgs"), 0u);
    // Each node's memory image carries its own final store.
    EXPECT_EQ(m.mem(0).read64(privateAddr) >> 32, 0u);
    EXPECT_EQ(m.mem(1).read64(privateAddr) >> 32, 1u);
}

TEST(DirectoryDomain, RemoteHomesProbeSharersAcrossTheFabric)
{
    // CNI16Qm's receive queue lives in main memory: the device claims
    // its blocks while the processor cache polls them, and for blocks
    // whose interleaved home is the other node the resulting Inv/Fwd
    // probes make full round trips over the mesh.
    Machine m = Machine::describe()
                    .nodes(2)
                    .ni("CNI16Qm")
                    .coherence("directory")
                    .net("mesh")
                    .build();
    pingPong(m, 2);
    const StatSet agg = m.aggregateStats();
    EXPECT_GT(agg.counter("probes_inv") + agg.counter("probes_fwd"), 0u);
    EXPECT_GT(agg.counter("remote_home"), 0u);
    EXPECT_GT(agg.counter("protocol_msgs"), 0u);
}

TEST(DirectoryDomain, PingPongCompletesOnMeshAndTorusForEveryNi)
{
    for (const char *net : {"mesh", "torus"}) {
        for (const char *ni :
             {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"}) {
            Machine m = Machine::describe()
                            .nodes(2)
                            .ni(ni)
                            .coherence("directory")
                            .net(net)
                            .build();
            pingPong(m, 2);
            const StatSet agg = m.aggregateStats();
            EXPECT_GT(agg.counter("getS") + agg.counter("getM") +
                          agg.counter("upgrades"),
                      0u)
                << ni << " on " << net;
        }
    }
}

TEST(DirectoryDomain, ReportCarriesTheCoherenceSection)
{
    Machine m = Machine::describe()
                    .nodes(2)
                    .ni("CNI16Qm")
                    .coherence("directory")
                    .net("torus")
                    .build();
    pingPong(m, 2);
    const std::string json = m.report();
    EXPECT_NE(json.find("\"coherence\":{\"kind\":\"directory\""),
              std::string::npos)
        << json.substr(0, 400);
    EXPECT_NE(json.find("\"tracked_blocks\""), std::string::npos);
    EXPECT_NE(json.find("\"home_requests\""), std::string::npos);
    EXPECT_NE(json.find("/directory\""), std::string::npos); // label
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(DirectoryDomain, SnoopReportHasNoCoherenceSection)
{
    Machine m = Machine::describe().nodes(2).ni("CNI4").build();
    pingPong(m, 1);
    EXPECT_EQ(m.report().find("\"coherence\""), std::string::npos);
}

TEST(DirectoryDomain, ShardedKernelIsBitIdenticalToOneThread)
{
    auto runOnce = [](int threads) {
        Machine m = Machine::describe()
                        .nodes(4)
                        .ni("CNI4")
                        .coherence("directory")
                        .net("mesh")
                        .threads(threads)
                        .build();
        // Hotspot plus cross-node cache contention: every node stores
        // to the same interleaved blocks and messages node 0. Plain
        // static: only node 0's shard touches it (see pongsStorage).
        static int received;
        received = 0;
        m.endpoint(0).onMessage(1, [](const UserMsg &) -> CoTask<void> {
            ++received;
            co_return;
        });
        for (NodeId n = 1; n < 4; ++n) {
            m.spawn(n, [](Machine &m, NodeId n) -> CoTask<void> {
                std::uint8_t p[64] = {std::uint8_t(n)};
                for (int i = 0; i < 4; ++i) {
                    co_await m.proc(n).write64(
                        kMemBase + Addr(i) * kBlockBytes, i);
                    co_await m.endpoint(n).send(0, 1, p, sizeof(p));
                }
            }(m, n));
        }
        m.spawn(0, [](Machine &m) -> CoTask<void> {
            co_await m.endpoint(0).pollUntil(
                [] { return received >= 12; });
        }(m));
        m.run();
        return m.report();
    };
    const std::string serialShard = runOnce(1);
    const std::string fourThreads = runOnce(4);
    EXPECT_EQ(serialShard, fourThreads);
}

TEST(DirectoryDomain, SparsePingPongRecallsAndStillConverges)
{
    // A directory with almost no reach: CNI16Qm's queue blocks plus the
    // polled state far exceed four entries per home, so evictions and
    // recalls fire constantly — and the workload must still finish.
    Machine m = Machine::describe()
                    .nodes(2)
                    .ni("CNI16Qm")
                    .coherence("directory")
                    .net("mesh")
                    .dirEntries(4)
                    .dirAssoc(4)
                    .build();
    pingPong(m, 3);
    const StatSet agg = m.aggregateStats();
    EXPECT_GT(agg.counter("dir_evictions"), 0u);
    EXPECT_GT(agg.counter("dir_recalls"), 0u);
    const std::string json = m.report();
    EXPECT_NE(json.find("\"dir_entries\":4"), std::string::npos);
    EXPECT_NE(json.find("\"dir_recalls\""), std::string::npos);
    EXPECT_NE(json.find("+dir4x4"), std::string::npos); // label suffix
}

TEST(DirectoryDomain, ThreeHopForwardingCutsRoundTripLatency)
{
    // The acceptance bar behind fig_coverage: with owner-forwarded
    // misses in the path (CNI16Qm's memory-homed queue hand-offs),
    // 3-hop must beat strict 4-hop on the same machine.
    MachineBuilder four = Machine::describe()
                              .nodes(2)
                              .ni("CNI16Qm")
                              .net("mesh")
                              .coherence("directory")
                              .dirHops(4);
    MachineBuilder three = Machine::describe()
                               .nodes(2)
                               .ni("CNI16Qm")
                               .net("mesh")
                               .coherence("directory")
                               .dirHops(3);
    const double fourUs = roundTripLatency(four.spec(), 64).microseconds;
    const double threeUs = roundTripLatency(three.spec(), 64).microseconds;
    EXPECT_GT(fourUs, 0.0);
    EXPECT_LT(threeUs, fourUs);
}

TEST(DirectoryDomain, RoundTripLatencyIsFiniteAndOrdered)
{
    // Sanity: the directory transport costs more than snooping on the
    // same routed fabric (4-hop protocol), and scales with size.
    MachineBuilder snoop =
        Machine::describe().nodes(2).ni("CNI4").net("mesh");
    MachineBuilder dir = Machine::describe()
                             .nodes(2)
                             .ni("CNI4")
                             .net("mesh")
                             .coherence("directory");
    const double snoopUs = roundTripLatency(snoop.spec(), 64).microseconds;
    const double dirUs = roundTripLatency(dir.spec(), 64).microseconds;
    EXPECT_GT(snoopUs, 0.0);
    EXPECT_GT(dirUs, snoopUs);
    EXPECT_LT(dirUs, 100.0); // finite and sane
}

} // namespace
} // namespace cni
