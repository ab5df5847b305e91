/**
 * @file
 * Messaging-layer (Endpoint) tests: fragmentation/reassembly, handler
 * dispatch, user tags, many-to-one traffic, and software flow control,
 * including which devices drain a blocked send into software buffers.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/machine.hpp"

namespace cni
{
namespace
{

MachineSpec
smallSpec(const char *m = "CNI16Q", int nodes = 4)
{
    return Machine::describe().nodes(nodes).ni(m).spec();
}

TEST(Endpoint, UserTagTravelsWithTheMessage)
{
    Machine sys(smallSpec());
    std::uint64_t seen = 0;
    sys.endpoint(1).onMessage(5, [&](const UserMsg &u) -> CoTask<void> {
        seen = u.userTag;
        co_return;
    });
    bool done = false;
    sys.spawn(0, [](Machine &sys, bool &done) -> CoTask<void> {
        co_await sys.endpoint(0).send(1, 5, 0xdeadbeefULL);
        done = true;
    }(sys, done));
    sys.spawn(1, [](Machine &sys, std::uint64_t *seen) -> CoTask<void> {
        co_await sys.endpoint(1).pollUntil([=] { return *seen != 0; });
    }(sys, &seen));
    sys.run();
    EXPECT_EQ(seen, 0xdeadbeefULL);
}

TEST(Endpoint, LargeMessageFragmentsAndReassembles)
{
    Machine sys(smallSpec("CNI512Q"));
    std::vector<std::uint8_t> got;
    sys.endpoint(2).onMessage(6, [&](const UserMsg &u) -> CoTask<void> {
        got = u.payload;
        co_return;
    });
    std::vector<std::uint8_t> payload(3000);
    std::iota(payload.begin(), payload.end(), 0);
    sys.spawn(0, [](Machine &sys, std::vector<std::uint8_t> &p)
                  -> CoTask<void> {
        co_await sys.endpoint(0).send(2, 6, p.data(), p.size());
    }(sys, payload));
    sys.spawn(2, [](Machine &sys, std::vector<std::uint8_t> *got)
                  -> CoTask<void> {
        co_await sys.endpoint(2).pollUntil([=] { return !got->empty(); });
    }(sys, &got));
    sys.run();
    EXPECT_EQ(got, payload);
}

TEST(Endpoint, InterleavedSendersReassembleIndependently)
{
    Machine sys(smallSpec("CNI512Q"));
    int received = 0;
    bool ok = true;
    sys.endpoint(3).onMessage(7, [&](const UserMsg &u) -> CoTask<void> {
        // Each sender's payload is filled with its node id.
        for (auto b : u.payload)
            ok = ok && b == std::uint8_t(u.src);
        ++received;
        co_return;
    });
    for (NodeId s : {0, 1, 2}) {
        sys.spawn(s, [](Machine &sys, NodeId s) -> CoTask<void> {
            std::vector<std::uint8_t> p(1000, std::uint8_t(s));
            for (int i = 0; i < 3; ++i)
                co_await sys.endpoint(s).send(3, 7, p.data(), p.size());
        }(sys, s));
    }
    sys.spawn(3, [](Machine &sys, int *received) -> CoTask<void> {
        co_await sys.endpoint(3).pollUntil([=] { return *received >= 9; });
    }(sys, &received));
    sys.run();
    EXPECT_EQ(received, 9);
    EXPECT_TRUE(ok);
}

TEST(Endpoint, HandlersCanSendReplies)
{
    Machine sys(smallSpec());
    int acks = 0;
    sys.endpoint(1).onMessage(8, [&](const UserMsg &u) -> CoTask<void> {
        co_await sys.endpoint(1).send(u.src, 9);
    });
    sys.endpoint(0).onMessage(9, [&](const UserMsg &) -> CoTask<void> {
        ++acks;
        co_return;
    });
    sys.spawn(0, [](Machine &sys, int *acks) -> CoTask<void> {
        for (int i = 0; i < 4; ++i)
            co_await sys.endpoint(0).send(1, 8);
        co_await sys.endpoint(0).pollUntil([=] { return *acks >= 4; });
    }(sys, &acks));
    // Node 0's handler counts the acks: node 1 must poll each time.
    sys.spawn(1, [](Machine &sys, int *acks) -> CoTask<void> {
        co_await sys.endpoint(1).pollEachUntil([=] { return *acks >= 4; });
    }(sys, &acks));
    sys.run();
    EXPECT_EQ(acks, 4);
}

TEST(Endpoint, ManyToOneBurstTriggersSoftwareFlowControl)
{
    // Every node floods node 0 while node 0 itself is trying to send:
    // the blocked sends must drain incoming traffic rather than deadlock.
    Machine sys(smallSpec("CNI16Q", 8));
    int got = 0;
    int got0 = 0;
    for (NodeId n = 0; n < 8; ++n) {
        sys.endpoint(n).onMessage(
            10, [&, n](const UserMsg &) -> CoTask<void> {
                if (n == 0)
                    ++got;
                else
                    ++got0;
                co_return;
            });
    }
    const int kPer = 20;
    for (NodeId s = 1; s < 8; ++s) {
        sys.spawn(s, [](Machine &sys, NodeId s) -> CoTask<void> {
            std::uint8_t p[64] = {};
            for (int i = 0; i < kPer; ++i)
                co_await sys.endpoint(s).send(0, 10, p, sizeof(p));
            // Also absorb node 0's counter-traffic.
            co_await sys.endpoint(s).poll();
        }(sys, s));
    }
    sys.spawn(0, [](Machine &sys, int *got) -> CoTask<void> {
        std::uint8_t p[64] = {};
        for (int i = 0; i < 10; ++i)
            co_await sys.endpoint(0).send(1 + (i % 7), 10, p, sizeof(p));
        co_await sys.endpoint(0).pollUntil(
            [=] { return *got >= 7 * kPer; });
    }(sys, &got));
    sys.run();
    EXPECT_EQ(got, 7 * kPer);
}

TEST(Endpoint, ZeroByteControlMessages)
{
    Machine sys(smallSpec());
    int pings = 0;
    sys.endpoint(1).onMessage(11, [&](const UserMsg &u) -> CoTask<void> {
        EXPECT_TRUE(u.payload.empty());
        ++pings;
        co_return;
    });
    sys.spawn(0, [](Machine &sys) -> CoTask<void> {
        for (int i = 0; i < 5; ++i)
            co_await sys.endpoint(0).send(1, 11);
    }(sys));
    sys.spawn(1, [](Machine &sys, int *pings) -> CoTask<void> {
        co_await sys.endpoint(1).pollUntil([=] { return *pings >= 5; });
    }(sys, &pings));
    sys.run();
    EXPECT_EQ(pings, 5);
}

TEST(Endpoint, FlowControlPolicyResolvesPerDevice)
{
    // A blocked send drains into software buffers everywhere except on
    // the hardware-overflow design.
    Machine a(smallSpec("CNI16Q", 2));
    EXPECT_TRUE(a.endpoint(0).softwareDrains());

    Machine b(smallSpec("CNI16Qm", 2));
    EXPECT_FALSE(b.endpoint(0).softwareDrains());
}

} // namespace
} // namespace cni
