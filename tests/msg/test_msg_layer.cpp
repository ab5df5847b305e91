/**
 * @file
 * Messaging-layer tests: fragmentation/reassembly, handler dispatch,
 * user tags, many-to-one traffic, and software flow control.
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

TEST(MsgLayer, UserTagTravelsWithTheMessage)
{
    Machine sys(smallSpec());
    std::uint64_t seen = 0;
    sys.msg(1).registerHandler(5, [&](const UserMsg &u) -> CoTask<void> {
        seen = u.userTag;
        co_return;
    });
    bool done = false;
    sys.spawn(0, [](Machine &sys, bool &done) -> CoTask<void> {
        co_await sys.msg(0).send(1, 5, 0xdeadbeefULL);
        done = true;
    }(sys, done));
    sys.spawn(1, [](Machine &sys, std::uint64_t *seen) -> CoTask<void> {
        co_await sys.msg(1).pollUntil([=] { return *seen != 0; });
    }(sys, &seen));
    sys.run();
    EXPECT_EQ(seen, 0xdeadbeefULL);
}

TEST(MsgLayer, LargeMessageFragmentsAndReassembles)
{
    Machine sys(smallSpec("CNI512Q"));
    std::vector<std::uint8_t> got;
    sys.msg(2).registerHandler(6, [&](const UserMsg &u) -> CoTask<void> {
        got = u.payload;
        co_return;
    });
    std::vector<std::uint8_t> payload(3000);
    std::iota(payload.begin(), payload.end(), 0);
    sys.spawn(0, [](Machine &sys, std::vector<std::uint8_t> &p)
                  -> CoTask<void> {
        co_await sys.msg(0).send(2, 6, p.data(), p.size());
    }(sys, payload));
    sys.spawn(2, [](Machine &sys, std::vector<std::uint8_t> *got)
                  -> CoTask<void> {
        co_await sys.msg(2).pollUntil([=] { return !got->empty(); });
    }(sys, &got));
    sys.run();
    EXPECT_EQ(got, payload);
}

TEST(MsgLayer, InterleavedSendersReassembleIndependently)
{
    Machine sys(smallSpec("CNI512Q"));
    int received = 0;
    bool ok = true;
    sys.msg(3).registerHandler(7, [&](const UserMsg &u) -> CoTask<void> {
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
                co_await sys.msg(s).send(3, 7, p.data(), p.size());
        }(sys, s));
    }
    sys.spawn(3, [](Machine &sys, int *received) -> CoTask<void> {
        co_await sys.msg(3).pollUntil([=] { return *received >= 9; });
    }(sys, &received));
    sys.run();
    EXPECT_EQ(received, 9);
    EXPECT_TRUE(ok);
}

TEST(MsgLayer, HandlersCanSendReplies)
{
    Machine sys(smallSpec());
    int acks = 0;
    sys.msg(1).registerHandler(8, [&](const UserMsg &u) -> CoTask<void> {
        co_await sys.msg(1).send(u.src, 9);
    });
    sys.msg(0).registerHandler(9, [&](const UserMsg &) -> CoTask<void> {
        ++acks;
        co_return;
    });
    sys.spawn(0, [](Machine &sys, int *acks) -> CoTask<void> {
        for (int i = 0; i < 4; ++i)
            co_await sys.msg(0).send(1, 8);
        co_await sys.msg(0).pollUntil([=] { return *acks >= 4; });
    }(sys, &acks));
    // Node 0's handler counts the acks: node 1 must poll each time.
    sys.spawn(1, [](Machine &sys, int *acks) -> CoTask<void> {
        co_await sys.msg(1).pollEachUntil([=] { return *acks >= 4; });
    }(sys, &acks));
    sys.run();
    EXPECT_EQ(acks, 4);
}

TEST(MsgLayer, ManyToOneBurstTriggersSoftwareFlowControl)
{
    // Every node floods node 0 while node 0 itself is trying to send:
    // the blocked sends must drain incoming traffic rather than deadlock.
    Machine sys(smallSpec("CNI16Q", 8));
    int got = 0;
    int got0 = 0;
    for (NodeId n = 0; n < 8; ++n) {
        sys.msg(n).registerHandler(10,
                                   [&, n](const UserMsg &) -> CoTask<void> {
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
                co_await sys.msg(s).send(0, 10, p, sizeof(p));
            // Also absorb node 0's counter-traffic.
            co_await sys.msg(s).poll();
        }(sys, s));
    }
    sys.spawn(0, [](Machine &sys, int *got) -> CoTask<void> {
        std::uint8_t p[64] = {};
        for (int i = 0; i < 10; ++i)
            co_await sys.msg(0).send(1 + (i % 7), 10, p, sizeof(p));
        co_await sys.msg(0).pollUntil(
            [=] { return *got >= 7 * kPer; });
    }(sys, &got));
    sys.run();
    EXPECT_EQ(got, 7 * kPer);
}

TEST(MsgLayer, ZeroByteControlMessages)
{
    Machine sys(smallSpec());
    int pings = 0;
    sys.msg(1).registerHandler(11, [&](const UserMsg &u) -> CoTask<void> {
        EXPECT_TRUE(u.payload.empty());
        ++pings;
        co_return;
    });
    sys.spawn(0, [](Machine &sys) -> CoTask<void> {
        for (int i = 0; i < 5; ++i)
            co_await sys.msg(0).send(1, 11);
    }(sys));
    sys.spawn(1, [](Machine &sys, int *pings) -> CoTask<void> {
        co_await sys.msg(1).pollUntil([=] { return *pings >= 5; });
    }(sys, &pings));
    sys.run();
    EXPECT_EQ(pings, 5);
}

} // namespace
} // namespace cni
