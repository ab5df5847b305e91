/**
 * @file
 * End-to-end integration tests: active-message ping-pong over every valid
 * NI/placement configuration — built through the MachineBuilder API and
 * the Endpoint messaging layer — verifying delivery, payload integrity,
 * and forward progress.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/machine.hpp"

namespace cni
{
namespace
{

struct PingPongFixtureState
{
    int pongsSeen = 0;
    int pingsSeen = 0;
    std::vector<std::uint8_t> lastPayload;
};

CoTask<void>
pinger(Endpoint &ep, PingPongFixtureState &st, int rounds,
       std::size_t bytes)
{
    std::vector<std::uint8_t> payload(bytes);
    std::iota(payload.begin(), payload.end(), 1);
    for (int r = 0; r < rounds; ++r) {
        co_await ep.send(1, /*port=*/1, payload.data(), payload.size());
        const int want = r + 1;
        co_await ep.pollUntil([&] { return st.pongsSeen >= want; });
    }
}

CoTask<void>
ponger(Endpoint &ep, PingPongFixtureState &st, int rounds)
{
    co_await ep.pollUntil([&] { return st.pingsSeen >= rounds; });
}

/** Run `rounds` ping-pongs of `bytes`-byte messages; return final tick. */
Tick
runPingPong(const MachineSpec &spec, int rounds, std::size_t bytes,
            PingPongFixtureState &st)
{
    Machine sys(spec);
    Endpoint &e0 = sys.endpoint(0);
    Endpoint &e1 = sys.endpoint(1);

    // Node 1: echo each ping back as a pong.
    e1.onMessage(1, [&](const UserMsg &u) -> CoTask<void> {
        ++st.pingsSeen;
        st.lastPayload = u.payload;
        co_await e1.send(0, 2, u.payload.data(), u.payload.size());
    });
    // Node 0: count pongs.
    e0.onMessage(2, [&](const UserMsg &u) -> CoTask<void> {
        ++st.pongsSeen;
        st.lastPayload = u.payload;
        co_return;
    });

    sys.spawn(0, pinger(e0, st, rounds, bytes));
    sys.spawn(1, ponger(e1, st, rounds));
    return sys.run();
}

struct ConfigCase
{
    const char *ni;
    NiPlacement placement;
};

MachineSpec
twoNode(const ConfigCase &pc)
{
    return Machine::describe()
        .nodes(2)
        .ni(pc.ni)
        .placement(pc.placement)
        .spec();
}

class PingPongAllConfigs : public ::testing::TestWithParam<ConfigCase>
{
};

TEST_P(PingPongAllConfigs, DeliversIntactPayloads)
{
    PingPongFixtureState st;
    const Tick t = runPingPong(twoNode(GetParam()), /*rounds=*/5,
                               /*bytes=*/64, st);
    EXPECT_EQ(st.pingsSeen, 5);
    EXPECT_EQ(st.pongsSeen, 5);
    ASSERT_EQ(st.lastPayload.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(st.lastPayload[i], static_cast<std::uint8_t>(i + 1));
    EXPECT_GT(t, 0u);
}

std::string
caseName(const ::testing::TestParamInfo<ConfigCase> &info)
{
    std::string s = info.param.ni;
    s += "_";
    s += toString(info.param.placement);
    for (auto &ch : s)
        if (ch == '-')
            ch = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllValid, PingPongAllConfigs,
    ::testing::Values(ConfigCase{"NI2w", NiPlacement::CacheBus},
                      ConfigCase{"NI2w", NiPlacement::MemoryBus},
                      ConfigCase{"NI2w", NiPlacement::IoBus},
                      ConfigCase{"CNI4", NiPlacement::MemoryBus},
                      ConfigCase{"CNI4", NiPlacement::IoBus},
                      ConfigCase{"CNI16Q", NiPlacement::MemoryBus},
                      ConfigCase{"CNI16Q", NiPlacement::IoBus},
                      ConfigCase{"CNI512Q", NiPlacement::MemoryBus},
                      ConfigCase{"CNI512Q", NiPlacement::IoBus},
                      ConfigCase{"CNI16Qm", NiPlacement::MemoryBus}),
    caseName);

class PingPongSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PingPongSizes, MultiFragmentMessagesReassemble)
{
    PingPongFixtureState st;
    const std::size_t bytes = GetParam();
    Machine sys = Machine::describe().nodes(2).ni("CNI512Q").build();
    Endpoint &e0 = sys.endpoint(0);
    Endpoint &e1 = sys.endpoint(1);
    e1.onMessage(1, [&](const UserMsg &u) -> CoTask<void> {
        ++st.pingsSeen;
        st.lastPayload = u.payload;
        co_return;
    });
    std::vector<std::uint8_t> payload(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
    sys.spawn(0, [](Endpoint &ep, std::vector<std::uint8_t> &p)
                  -> CoTask<void> {
        co_await ep.send(1, 1, p.data(), p.size());
    }(e0, payload));
    sys.spawn(1, ponger(e1, st, 1));
    sys.run();
    ASSERT_EQ(st.lastPayload.size(), bytes);
    EXPECT_EQ(st.lastPayload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PingPongSizes,
                         ::testing::Values(std::size_t{0}, std::size_t{8},
                                           std::size_t{64}, std::size_t{244},
                                           std::size_t{245}, std::size_t{512},
                                           std::size_t{2048},
                                           std::size_t{4096}));

TEST(PingPong, CniIsFasterThanNi2wOnMemoryBus)
{
    PingPongFixtureState a, b;
    const Tick tNi = runPingPong(
        twoNode({"NI2w", NiPlacement::MemoryBus}), 10, 64, a);
    const Tick tCni = runPingPong(
        twoNode({"CNI512Q", NiPlacement::MemoryBus}), 10, 64, b);
    EXPECT_LT(tCni, tNi);
}

TEST(PingPong, CacheBusIsFastestForNi2w)
{
    PingPongFixtureState a, b, c;
    const Tick tc = runPingPong(
        twoNode({"NI2w", NiPlacement::CacheBus}), 10, 64, a);
    const Tick tm = runPingPong(
        twoNode({"NI2w", NiPlacement::MemoryBus}), 10, 64, b);
    const Tick ti = runPingPong(
        twoNode({"NI2w", NiPlacement::IoBus}), 10, 64, c);
    EXPECT_LT(tc, tm);
    EXPECT_LT(tm, ti);
}

} // namespace
} // namespace cni
