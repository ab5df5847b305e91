/**
 * @file
 * Endpoint facade tests: typed send/recv, mailbox pull-mode receive,
 * correlated RPC (including concurrent outstanding calls), and which
 * devices drain a blocked send into software buffers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/machine.hpp"

namespace cni
{
namespace
{

Machine
twoNode(const char *ni = "CNI16Q")
{
    return Machine::describe().nodes(2).ni(ni).build();
}

TEST(Endpoint, TypedValueRoundTrips)
{
    Machine m = twoNode();
    Endpoint &e0 = m.endpoint(0);
    Endpoint &e1 = m.endpoint(1);
    e1.subscribe(7);

    struct Sample
    {
        std::uint32_t a;
        double b;
    };

    Sample got{0, 0};
    m.spawn(0, [](Endpoint &e) -> CoTask<void> {
        co_await e.sendValue(1, 7, Sample{42, 2.5});
    }(e0));
    m.spawn(1, [](Endpoint &e, Sample &got) -> CoTask<void> {
        got = co_await e.recvValue<Sample>(7);
    }(e1, got));
    m.run();
    EXPECT_EQ(got.a, 42u);
    EXPECT_EQ(got.b, 2.5);
}

TEST(Endpoint, MailboxPreservesOrderAcrossPorts)
{
    Machine m = twoNode();
    Endpoint &e0 = m.endpoint(0);
    Endpoint &e1 = m.endpoint(1);
    e1.subscribe(1);
    e1.subscribe(2);

    std::vector<int> got;
    m.spawn(0, [](Endpoint &e) -> CoTask<void> {
        for (int i = 0; i < 3; ++i)
            co_await e.sendValue(1, 1, i);
        co_await e.sendValue(1, 2, 99);
    }(e0));
    m.spawn(1, [](Endpoint &e, std::vector<int> &got) -> CoTask<void> {
        // Drain port 2 first: messages on port 1 wait in their mailbox.
        got.push_back(co_await e.recvValue<int>(2));
        for (int i = 0; i < 3; ++i)
            got.push_back(co_await e.recvValue<int>(1));
    }(e1, got));
    m.run();
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got[0], 99);
    EXPECT_EQ(got[1], 0);
    EXPECT_EQ(got[2], 1);
    EXPECT_EQ(got[3], 2);
}

TEST(Endpoint, RpcRoundTripsAndCorrelates)
{
    Machine m = twoNode("CNI512Q");
    Endpoint &e0 = m.endpoint(0);
    Endpoint &e1 = m.endpoint(1);

    // Server: doubles each 32-bit request.
    e1.serve(5, [](const UserMsg &u)
                    -> CoTask<std::vector<std::uint8_t>> {
        std::uint32_t v = 0;
        std::memcpy(&v, u.payload.data(), sizeof v);
        v *= 2;
        std::vector<std::uint8_t> out(sizeof v);
        std::memcpy(out.data(), &v, sizeof v);
        co_return out;
    });

    std::vector<std::uint32_t> replies;
    bool done = false;
    m.spawn(0, [](Endpoint &e, std::vector<std::uint32_t> &replies,
                  bool &done) -> CoTask<void> {
        for (std::uint32_t i = 1; i <= 4; ++i) {
            UserMsg r = co_await e.rpcValue(1, 5, i);
            std::uint32_t v = 0;
            std::memcpy(&v, r.payload.data(), sizeof v);
            replies.push_back(v);
        }
        done = true;
    }(e0, replies, done));
    // Node 0's program sets `done`: node 1 must poll each time.
    m.spawn(1, [](Endpoint &e, bool &done) -> CoTask<void> {
        co_await e.pollEachUntil([&] { return done; });
    }(e1, done));
    m.run();

    ASSERT_EQ(replies.size(), 4u);
    for (std::uint32_t i = 1; i <= 4; ++i)
        EXPECT_EQ(replies[i - 1], 2 * i);
}

TEST(Endpoint, RpcTextPayload)
{
    Machine m = twoNode("CNI16Qm");
    Endpoint &e1 = m.endpoint(1);
    e1.serve(3, [](const UserMsg &u)
                    -> CoTask<std::vector<std::uint8_t>> {
        std::vector<std::uint8_t> out(u.payload.rbegin(),
                                      u.payload.rend());
        co_return out;
    });
    std::string reply;
    bool done = false;
    m.spawn(0, [](Endpoint &e, std::string &reply,
                  bool &done) -> CoTask<void> {
        const char req[] = "stressed";
        UserMsg r = co_await e.rpc(1, 3, req, sizeof(req) - 1);
        reply.assign(r.payload.begin(), r.payload.end());
        done = true;
    }(m.endpoint(0), reply, done));
    // Node 0's program sets `done`: node 1 must poll each time.
    m.spawn(1, [](Endpoint &e, bool &done) -> CoTask<void> {
        co_await e.pollEachUntil([&] { return done; });
    }(e1, done));
    m.run();
    EXPECT_EQ(reply, "desserts");
}

TEST(Endpoint, PlainSendToServedPortIsOneWay)
{
    // A fire-and-forget send() to a served port must invoke the handler
    // without generating a reply (the sender has no reply plumbing).
    Machine m = twoNode();
    int served = 0;
    m.endpoint(1).serve(6, [&](const UserMsg &)
                               -> CoTask<std::vector<std::uint8_t>> {
        ++served;
        co_return std::vector<std::uint8_t>{1, 2, 3};
    });
    bool done = false;
    m.spawn(0, [](Endpoint &e, bool &done) -> CoTask<void> {
        co_await e.send(1, 6); // one-way: no rpc, no reply expected
        co_await e.send(1, 6, /*tag=*/7); // application tags stay one-way
        UserMsg r = co_await e.rpc(1, 6, nullptr, 0);
        EXPECT_EQ(r.payload.size(), 3u);
        done = true;
    }(m.endpoint(0), done));
    // Node 0's program sets `done`: node 1 must poll each time.
    m.spawn(1, [](Endpoint &e, bool &done) -> CoTask<void> {
        co_await e.pollEachUntil([&] { return done; });
    }(m.endpoint(1), done));
    m.run();
    EXPECT_EQ(served, 3);
}

TEST(Endpoint, FlowControlPolicyResolvesPerDevice)
{
    // A blocked send drains into software buffers everywhere except on
    // the hardware-overflow design.
    Machine a = twoNode("CNI16Q");
    EXPECT_TRUE(a.msg(0).softwareDrains());

    Machine b = twoNode("CNI16Qm");
    EXPECT_FALSE(b.msg(0).softwareDrains());
}

} // namespace
} // namespace cni
