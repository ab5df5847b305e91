/**
 * @file
 * Interconnect-model tests: registry lookup, NetParams validation
 * through the machine description, mesh/torus dimension-order routing
 * and per-link occupancy, crossbar endpoint contention, and the
 * runtime-configurable window and retry interval.
 */

#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "net/ideal.hpp"
#include "net/mesh.hpp"
#include "net/xbar.hpp"
#include "sim/event_queue.hpp"

namespace cni
{
namespace
{

class RecordingPort : public NiPort
{
  public:
    bool
    netDeliver(const NetMsg &msg) override
    {
        if (refusals > 0) {
            --refusals;
            return false;
        }
        delivered.push_back(msg);
        deliveredAt.push_back(eq->now());
        return true;
    }

    int refusals = 0;
    std::vector<NetMsg> delivered;
    std::vector<Tick> deliveredAt;
    EventQueue *eq = nullptr;
};

NetMsg
msg(NodeId src, NodeId dst, std::uint32_t seq = 0,
    std::size_t payloadBytes = 16)
{
    NetMsg m;
    m.src = src;
    m.dst = dst;
    m.seq = seq;
    m.payload.assign(payloadBytes, std::uint8_t(seq));
    return m;
}

/** 16-byte payload -> 28 wire bytes -> 7 serialization cycles at bw 4. */
constexpr Tick kSer = 7;

template <typename Net>
struct Rig
{
    EventQueue eq;
    Net net;
    std::vector<RecordingPort> ports;

    Rig(int n, NetParams p, bool wrap = false)
        : net(make(eq, n, std::move(p), wrap)), ports(n)
    {
        for (int i = 0; i < n; ++i) {
            ports[i].eq = &eq;
            net.attach(i, &ports[i]);
        }
    }

    static Net
    make(EventQueue &eq, int n, NetParams p, bool wrap)
    {
        if constexpr (std::is_same_v<Net, MeshNet>)
            return Net(eq, n, std::move(p), wrap);
        else
            return Net(eq, n, std::move(p));
    }
};

TEST(NetRegistry, BuiltinModelsAreRegistered)
{
    const NetRegistry &r = NetRegistry::instance();
    for (const char *name : {"ideal", "mesh", "torus", "xbar"})
        EXPECT_TRUE(r.known(name)) << name;
    EXPECT_FALSE(r.known("carrier-pigeon"));
}

TEST(NetRegistry, SpecValidationCatchesUnknownTopologyAndBadDims)
{
    std::string why;
    EXPECT_FALSE(
        Machine::describe().nodes(4).net("carrier-pigeon").valid(&why));
    EXPECT_NE(why.find("carrier-pigeon"), std::string::npos);
    EXPECT_NE(why.find("ideal"), std::string::npos); // lists models

    EXPECT_FALSE(
        Machine::describe().nodes(16).net("mesh").meshDims(3, 4).valid(
            &why));
    EXPECT_NE(why.find("3x4"), std::string::npos);
    EXPECT_TRUE(
        Machine::describe().nodes(16).net("mesh").meshDims(4, 4).valid());

    EXPECT_FALSE(Machine::describe().nodes(2).window(0).valid(&why));
}

TEST(NetParamsTest, WindowDepthIsRuntimeConfigurable)
{
    NetParams p;
    p.window = 2;
    Rig<IdealNet> rig(4, p);
    rig.net.inject(msg(0, 1, 0));
    EXPECT_TRUE(rig.net.canInject(0, 1));
    rig.net.inject(msg(0, 1, 1));
    EXPECT_FALSE(rig.net.canInject(0, 1));
    rig.eq.run();
    EXPECT_TRUE(rig.net.canInject(0, 1));
    EXPECT_EQ(rig.net.stats().counter("delivered"), 2u);
}

TEST(NetParamsTest, RetryIntervalIsConfigurableAndCounted)
{
    NetParams p;
    p.retryInterval = 5;
    Rig<IdealNet> rig(4, p);
    rig.ports[1].refusals = 3;
    rig.net.inject(msg(0, 1));
    rig.eq.run();
    ASSERT_EQ(rig.ports[1].delivered.size(), 1u);
    // Arrival at `latency`, then 3 refused attempts 5 cycles apart.
    EXPECT_EQ(rig.ports[1].deliveredAt[0], p.latency + 3 * 5);
    EXPECT_EQ(rig.net.stats().counter("delivery_retries"), 3u);
    EXPECT_EQ(rig.net.stats().counter("retry_wait_cycles"), 15u);
}

TEST(MeshNetTest, DimensionOrderRoutingChargesPerHop)
{
    NetParams p;
    p.meshX = 4;
    p.meshY = 4;
    Rig<MeshNet> rig(16, p);
    EXPECT_EQ(rig.net.dimX(), 4);
    EXPECT_EQ(rig.net.dimY(), 4);
    EXPECT_EQ(rig.net.hops(0, 3), 3);  // three hops east
    EXPECT_EQ(rig.net.hops(0, 15), 6); // 3 east + 3 south
    rig.net.inject(msg(0, 3));
    rig.eq.run();
    ASSERT_EQ(rig.ports[3].delivered.size(), 1u);
    EXPECT_EQ(rig.ports[3].deliveredAt[0],
              3 * (p.hopLatency + kSer)); // uncontended
}

TEST(MeshNetTest, TorusWrapsAndRoutesTheShortWay)
{
    NetParams p;
    p.meshX = 4;
    p.meshY = 4;
    Rig<MeshNet> rig(16, p, /*wrap=*/true);
    EXPECT_EQ(rig.net.hops(0, 3), 1);  // one hop west, wrapped
    EXPECT_EQ(rig.net.hops(0, 15), 2); // wrap both dimensions
    rig.net.inject(msg(0, 3));
    rig.eq.run();
    ASSERT_EQ(rig.ports[3].delivered.size(), 1u);
    EXPECT_EQ(rig.ports[3].deliveredAt[0], p.hopLatency + kSer);
}

TEST(MeshNetTest, DerivesNearSquareDims)
{
    EXPECT_EQ(meshDimsFor(16), (std::pair<int, int>{4, 4}));
    EXPECT_EQ(meshDimsFor(12), (std::pair<int, int>{3, 4}));
    EXPECT_EQ(meshDimsFor(7), (std::pair<int, int>{1, 7}));
    Rig<MeshNet> rig(8, NetParams{});
    EXPECT_EQ(rig.net.dimX(), 2);
    EXPECT_EQ(rig.net.dimY(), 4);
}

TEST(MeshNetTest, SharedLinkSerializesAndCountsOccupancy)
{
    NetParams p;
    p.meshX = 2;
    p.meshY = 1;
    Rig<MeshNet> rig(2, p);
    rig.net.inject(msg(0, 1, 0));
    rig.net.inject(msg(0, 1, 1));
    rig.eq.run();
    ASSERT_EQ(rig.ports[1].delivered.size(), 2u);
    // First message: hop + serialization. Second queues behind it on
    // the single east link.
    EXPECT_EQ(rig.ports[1].deliveredAt[0], p.hopLatency + kSer);
    EXPECT_EQ(rig.ports[1].deliveredAt[1], p.hopLatency + 2 * kSer);
    EXPECT_EQ(rig.ports[1].delivered[0].seq, 0u);
    EXPECT_EQ(rig.ports[1].delivered[1].seq, 1u);
    EXPECT_EQ(rig.net.stats().counter("link_busy_cycles"), 2 * kSer);
    EXPECT_EQ(rig.net.stats().counter("link_wait_cycles"), kSer);
}

TEST(CrossbarNetTest, ContentionOnlyAtEndpoints)
{
    NetParams p;
    Rig<CrossbarNet> rig(4, p);
    // Two sources, one destination: the second serializes into node 0's
    // ingress port behind the first.
    rig.net.inject(msg(1, 0, 0));
    rig.net.inject(msg(2, 0, 1));
    // Distinct pair: unaffected by the hotspot.
    rig.net.inject(msg(3, 2, 2));
    rig.eq.run();
    const Tick uncontended = kSer + p.latency + kSer;
    ASSERT_EQ(rig.ports[0].delivered.size(), 2u);
    EXPECT_EQ(rig.ports[0].deliveredAt[0], uncontended);
    EXPECT_EQ(rig.ports[0].deliveredAt[1], uncontended + kSer);
    ASSERT_EQ(rig.ports[2].delivered.size(), 1u);
    EXPECT_EQ(rig.ports[2].deliveredAt[0], uncontended);
    EXPECT_EQ(rig.net.stats().counter("ingress_wait_cycles"), kSer);
    EXPECT_EQ(rig.net.stats().counter("egress_wait_cycles"), 0u);
}

TEST(CrossbarNetTest, EgressPortSerializesOneSendersBursts)
{
    NetParams p;
    Rig<CrossbarNet> rig(4, p);
    rig.net.inject(msg(0, 1, 0));
    rig.net.inject(msg(0, 2, 1)); // different dst, same egress port
    rig.eq.run();
    const Tick uncontended = kSer + p.latency + kSer;
    ASSERT_EQ(rig.ports[1].deliveredAt[0], uncontended);
    ASSERT_EQ(rig.ports[2].deliveredAt[0], uncontended + kSer);
    EXPECT_EQ(rig.net.stats().counter("egress_wait_cycles"), kSer);
}

TEST(InterconnectTest, PayloadBytesSurviveMeshTransit)
{
    Rig<MeshNet> rig(4, NetParams{});
    NetMsg m = msg(0, 3, 9, 0);
    m.payload = {1, 2, 3, 4, 5};
    rig.net.inject(m);
    rig.eq.run();
    ASSERT_EQ(rig.ports[3].delivered.size(), 1u);
    EXPECT_EQ(rig.ports[3].delivered[0].payload,
              (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

} // namespace
} // namespace cni
