/**
 * @file
 * Idle-poll fast-forward (MsgLayer::pollUntil) changes nothing a run
 * reports. Every scenario below pins the final tick, the empty-poll and
 * load-hit counters, and an FNV-1a digest of Machine::report() with its
 * "kernel" section cut out — values recorded with the plain per-poll
 * loop — so a fast-forward that lands a cycle late, charges one poll
 * too few, or reorders one same-tick event fails here. The scenarios
 * aim at the edges of the quiet-poll argument: arrivals at every phase
 * of the poll period around the fabric latency, a slot write in flight
 * when the receiver decides, refused deliveries and their retries, a
 * bounded runUntil stopping mid-spin, and nodes where nothing may be
 * skipped (two tasks, two contexts). A predicate another node makes
 * true breaks pollUntil's contract and must die loudly; pollEachUntil
 * waits on it with the per-poll loop.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/machine.hpp"

namespace cni
{
namespace
{

constexpr Port kPing = 7;
constexpr Port kPong = 8;

/** What one run is pinned by. */
struct Obs
{
    Tick end = 0;
    std::uint64_t emptyPolls = 0;
    std::uint64_t loadHits = 0;
    std::uint64_t digest = 0;

    bool
    operator==(const Obs &o) const
    {
        return end == o.end && emptyPolls == o.emptyPolls &&
               loadHits == o.loadHits && digest == o.digest;
    }
};

std::string
row(const Obs &o)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "{%llu, %llu, %llu, 0x%016llxULL}",
                  (unsigned long long)o.end,
                  (unsigned long long)o.emptyPolls,
                  (unsigned long long)o.loadHits,
                  (unsigned long long)o.digest);
    return buf;
}

/** gtest prints a mismatch as a ready-to-paste table row. */
void
PrintTo(const Obs &o, std::ostream *os)
{
    *os << row(o);
}

/** The report with its "kernel" object removed. */
std::string
withoutKernel(const std::string &report)
{
    const std::size_t at = report.find("\"kernel\":");
    if (at == std::string::npos)
        return report;
    std::size_t end = report.find('}', at);
    if (end + 1 < report.size() && report[end + 1] == ',')
        ++end;
    return report.substr(0, at) + report.substr(end + 1);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** kernel.polls_elided of a serial report (0 when absent). */
std::uint64_t
pollsElided(const Machine &m)
{
    const std::string r = m.report();
    const std::string key = "\"polls_elided\":";
    const std::size_t at = r.find(key);
    return at == std::string::npos
               ? 0
               : std::stoull(r.substr(at + key.size()));
}

Obs
observe(const Machine &m, Tick end)
{
    const StatSet s = m.aggregateStats();
    return {end, s.counter("recv_empty_polls"), s.counter("load_hits"),
            fnv1a(withoutKernel(m.report()))};
}

void
countOn(Machine &m, NodeId n, Port port, int *counter, Tick work = 0)
{
    m.endpoint(n).onMessage(
        port, [&m, n, counter, work](const UserMsg &) -> CoTask<void> {
            ++*counter;
            if (work > 0)
                co_await m.proc(n).delay(work);
        });
}

CoTask<void>
awaitCount(Endpoint &e, const int *counter, int want)
{
    co_await e.pollUntil([counter, want] { return *counter >= want; });
}

// ---- a receiver spinning while its sender waits ----------------------------

struct Config
{
    const char *ni;
    NiPlacement placement;
};

const Config kConfigs[] = {{"CNI16Qm", NiPlacement::MemoryBus},
                           {"CNI512Q", NiPlacement::IoBus}};

std::vector<Tick>
senderWaits()
{
    std::vector<Tick> w;
    for (Tick d = 0; d <= 11; ++d)
        w.push_back(d);
    for (Tick d = 94; d <= 106; ++d)
        w.push_back(d);
    return w;
}

/**
 * Node 0 waits `wait` cycles, pings node 1 and spins for the pong;
 * node 1 spins for the ping and answers it from its handler.
 */
Obs
pingAfter(const Config &c, Tick wait, std::uint64_t *elided = nullptr)
{
    Machine m =
        Machine::describe().nodes(2).ni(c.ni).placement(c.placement).build();
    int pings = 0, pongs = 0;
    countOn(m, 0, kPong, &pongs);
    m.endpoint(1).onMessage(kPing, [&m, &pings](const UserMsg &u)
                                       -> CoTask<void> {
        ++pings;
        co_await m.endpoint(1).send(0, kPong, u.payload.data(),
                                    u.payload.size());
    });
    m.spawn(0, [](Machine &m, Tick wait, const int *pongs) -> CoTask<void> {
        co_await m.proc(0).delay(wait);
        std::uint8_t b[64] = {};
        co_await m.endpoint(0).send(1, kPing, b, sizeof b);
        co_await awaitCount(m.endpoint(0), pongs, 1);
    }(m, wait, &pongs));
    m.spawn(1, awaitCount(m.endpoint(1), &pings, 1));
    const Tick end = m.run();
    if (elided)
        *elided = pollsElided(m);
    return observe(m, end);
}

const Obs kPingAfter[2][25] = {
    {
        {1243, 168, 348, 0x8e5f73160d0f890bULL},
        {1244, 169, 350, 0xc998e08bf6f5f86eULL},
        {1245, 169, 350, 0x7337ed08888e394fULL},
        {1246, 169, 350, 0x7ce00d29b64d9b63ULL},
        {1247, 169, 350, 0x6392553c3bb15e5cULL},
        {1248, 169, 350, 0x74e2e85b0fa0d5e2ULL},
        {1249, 169, 350, 0x51b2c268f83be839ULL},
        {1250, 170, 352, 0x9e71c18d9fe5940eULL},
        {1251, 170, 352, 0xbb715459e92a06f2ULL},
        {1252, 170, 352, 0x8dfd9f548bc73bb5ULL},
        {1253, 170, 352, 0x674cc77544aa937fULL},
        {1254, 170, 352, 0x790945a72e1ca01cULL},
        {1337, 184, 380, 0x1f2cbd6c1d684527ULL},
        {1338, 184, 380, 0x0e376a3364d82a0fULL},
        {1339, 184, 380, 0x74628c19142cb694ULL},
        {1340, 185, 382, 0xa101d1e00a9184b3ULL},
        {1341, 185, 382, 0x78a14664e661a988ULL},
        {1342, 185, 382, 0x5a3808a3ca7f3b64ULL},
        {1343, 185, 382, 0x2100bf4eb74f6db4ULL},
        {1344, 185, 382, 0x4f8cced4cf4c8677ULL},
        {1345, 185, 382, 0x8d899deee80ad4e2ULL},
        {1346, 186, 384, 0x1241a3274cad2603ULL},
        {1347, 186, 384, 0x0acd3b7bae18dc54ULL},
        {1348, 186, 384, 0x935ce42c1fa64c3aULL},
        {1349, 186, 384, 0xc55290f9fbc7a959ULL},
    },
    {
        {1735, 215, 442, 0xc6bd24477fa4934fULL},
        {1736, 215, 442, 0x74216c4864ef404eULL},
        {1737, 215, 442, 0xae1511f470ebfc46ULL},
        {1738, 215, 442, 0x0dd967eeca9c8f5bULL},
        {1739, 215, 442, 0x2f9e4635169ea1b5ULL},
        {1740, 216, 444, 0xe1afcc551366f0f4ULL},
        {1741, 216, 444, 0x0eeedbe92d8c0cd7ULL},
        {1742, 216, 444, 0xf782b60c6599f790ULL},
        {1743, 216, 444, 0x1d7f578617bff71fULL},
        {1744, 216, 444, 0x774f907e8efaf536ULL},
        {1745, 216, 444, 0x60ca78a6f9790595ULL},
        {1746, 217, 446, 0xe31874b6140198a2ULL},
        {1829, 230, 472, 0xfead15edbaea1a70ULL},
        {1830, 231, 474, 0xc64ee357b191287cULL},
        {1831, 231, 474, 0x3cff5907b64ab753ULL},
        {1832, 231, 474, 0xbedf06e835e3be40ULL},
        {1833, 231, 474, 0x9f71cf8be8b1199fULL},
        {1834, 231, 474, 0xfc7df49979564623ULL},
        {1835, 231, 474, 0x5abd564cdb080219ULL},
        {1836, 232, 476, 0x4306d1eb7ccb9b85ULL},
        {1837, 232, 476, 0x21d66be41a42c849ULL},
        {1838, 232, 476, 0x7e8017a280785218ULL},
        {1839, 232, 476, 0x2056d7bf04ecc2f2ULL},
        {1840, 232, 476, 0xd307a2bc8bc4f0daULL},
        {1841, 232, 476, 0x17a165e5b3932f8fULL},
    },
};

TEST(IdlePoll, ArrivalAtEveryPhaseOfThePollPeriod)
{
    const std::vector<Tick> waits = senderWaits();
    for (int ci = 0; ci < 2; ++ci) {
        for (std::size_t i = 0; i < waits.size(); ++i) {
            const Obs got = pingAfter(kConfigs[ci], waits[i]);
            EXPECT_EQ(got, kPingAfter[ci][i])
                << kConfigs[ci].ni << " wait " << waits[i];
        }
    }
}

TEST(IdlePoll, QuietSpinsAreFastForwarded)
{
    std::uint64_t elided = 0;
    pingAfter(kConfigs[0], 100, &elided);
    EXPECT_GT(elided, 0u);
    pingAfter(kConfigs[1], 100, &elided);
    EXPECT_GT(elided, 0u);
}

// ---- two back-to-back arrivals: a slot write in flight ---------------------

Obs
backToBack(const Config &c, Tick wait, std::size_t bytes)
{
    Machine m =
        Machine::describe().nodes(2).ni(c.ni).placement(c.placement).build();
    int got = 0;
    countOn(m, 1, kPing, &got);
    m.spawn(0, [](Machine &m, Tick wait, std::size_t bytes) -> CoTask<void> {
        co_await m.proc(0).delay(wait);
        std::vector<std::uint8_t> b(bytes, 0x3c);
        co_await m.endpoint(0).send(1, kPing, b.data(), b.size());
        co_await m.endpoint(0).send(1, kPing, b.data(), b.size());
    }(m, wait, bytes));
    m.spawn(1, awaitCount(m.endpoint(1), &got, 2));
    return observe(m, m.run());
}

const Tick kB2bWaits[] = {0, 5, 97, 103};
const std::size_t kB2bBytes[] = {8, 600};

const Obs kBackToBack[2][4][2] = {
    {
        {{502, 29, 62, 0x84931e2df94ff731ULL},
         {2764, 87, 321, 0xddc4e5e70f8711c3ULL}},
        {{507, 30, 64, 0x4e750b709da88d40ULL},
         {2769, 88, 323, 0x2d5bd7efa927919fULL}},
        {{599, 46, 96, 0x619f8d62a27c4d15ULL},
         {2861, 103, 353, 0x5a4ebb3d19c6d79aULL}},
        {{605, 47, 98, 0x0be6fe0634fbb912ULL},
         {2867, 104, 355, 0xc9d10f600957a8b1ULL}},
    },
    {
        {{797, 51, 106, 0xd7d4cfbad88700caULL},
         {3851, 140, 427, 0x969c917d264988f8ULL}},
        {{802, 52, 108, 0xd99108b8ca920612ULL},
         {3856, 141, 429, 0x305e37dfc779aad2ULL}},
        {{894, 67, 138, 0x68ecf6c7f0377cc8ULL},
         {3948, 157, 461, 0x2420abee3142d11eULL}},
        {{900, 68, 140, 0xef547d9764dcf388ULL},
         {3954, 158, 463, 0x6c9443d92e46fb2cULL}},
    },
};

TEST(IdlePoll, BackToBackArrivalsWithASlotWriteInFlight)
{
    for (int ci = 0; ci < 2; ++ci) {
        for (int wi = 0; wi < 4; ++wi) {
            for (int bi = 0; bi < 2; ++bi) {
                const Obs got =
                    backToBack(kConfigs[ci], kB2bWaits[wi], kB2bBytes[bi]);
                EXPECT_EQ(got, kBackToBack[ci][wi][bi])
                    << kConfigs[ci].ni << " wait " << kB2bWaits[wi]
                    << " bytes " << kB2bBytes[bi];
            }
        }
    }
}

// ---- three senders flooding a CNI16Q receiver ------------------------------

struct Flood
{
    Tick retry;       //!< fabric retry interval
    Tick handlerWork; //!< receiver cycles per message
    int burst;        //!< messages per sender per burst
};

/**
 * Three senders send two bursts each to node 0. Its four-slot queue
 * fills until the NI refuses deliveries; with a long retry interval
 * the receiver drains the queue and spins quietly while the refused
 * message's retry is still scheduled.
 */
const Flood kFloods[] = {{20, 300, 10}, {3000, 20, 4}};

const Obs kFlooded[] = {
    {42875, 413, 2647, 0x0459835166c704cfULL},
    {18791, 1394, 3383, 0x646db2a925adf252ULL},
};

TEST(IdlePoll, RefusedDeliveriesAndRetries)
{
    for (int fi = 0; fi < 2; ++fi) {
        const Flood &f = kFloods[fi];
        Machine m =
            Machine::describe().nodes(4).ni("CNI16Q").netRetry(f.retry).build();
        int got = 0;
        countOn(m, 0, kPing, &got, f.handlerWork);
        for (NodeId s = 1; s <= 3; ++s) {
            m.spawn(s, [](Machine &m, NodeId s, int burst) -> CoTask<void> {
                std::uint8_t b[200] = {};
                for (int k = 0; k < 2; ++k) {
                    co_await m.proc(s).delay(Tick(s) * 7 + Tick(k) * 9000);
                    for (int i = 0; i < burst; ++i)
                        co_await m.endpoint(s).send(0, kPing, b, sizeof b);
                }
            }(m, s, f.burst));
        }
        m.spawn(0, awaitCount(m.endpoint(0), &got, 3 * 2 * f.burst));
        const Obs obs = observe(m, m.run());
        EXPECT_GT(m.net().stats().counter("delivery_retries"), 0u);
        EXPECT_GT(pollsElided(m), 0u);
        EXPECT_EQ(obs, kFlooded[fi]) << "retry " << f.retry;
    }
}

// ---- Machine::runUntil stopping mid-spin -----------------------------------

const Tick kLimits[] = {50,  137, 200, 201, 202, 203,
                        204, 205, 206, 350, 480};

Obs
stopAt(Tick limit, std::uint64_t *elided)
{
    Machine m = Machine::describe().nodes(2).ni("CNI16Qm").build();
    int got = 0;
    countOn(m, 1, kPing, &got);
    m.spawn(0, [](Machine &m) -> CoTask<void> {
        co_await m.proc(0).delay(400);
        co_await m.endpoint(0).send(1, kPing);
    }(m));
    m.spawn(1, awaitCount(m.endpoint(1), &got, 1));
    const Tick end = m.runUntil(limit);
    *elided += pollsElided(m);
    const Obs obs = observe(m, end);
    m.run(); // finish the tasks so no coroutine frame outlives the machine
    return obs;
}

const Obs kStopAt[11] = {
    {84, 1, 0, 0xf0732f131010620dULL},
    {137, 9, 18, 0x45cd4ceedec7c71fULL},
    {202, 20, 39, 0xc73e4c8e3a4bbc6aULL},
    {202, 20, 39, 0xc73e4c8e3a4bbc6aULL},
    {202, 20, 39, 0xc73e4c8e3a4bbc6aULL},
    {203, 20, 40, 0x10c62e674bb37c02ULL},
    {204, 21, 40, 0x7de20c62c3e48ee4ULL},
    {208, 21, 41, 0x49da91c402c5757dULL},
    {208, 21, 41, 0x49da91c402c5757dULL},
    {352, 45, 89, 0x114a767ea9f953d8ULL},
    {480, 67, 132, 0x23d6cf49f8632284ULL},
};

TEST(IdlePoll, BoundedRunStopsMidSpin)
{
    std::uint64_t elided = 0;
    for (int i = 0; i < 11; ++i) {
        const Obs got = stopAt(kLimits[i], &elided);
        EXPECT_EQ(got, kStopAt[i]) << "limit " << kLimits[i];
    }
    EXPECT_GT(elided, 0u);
}

// ---- nodes where nothing may be skipped ------------------------------------

TEST(IdlePoll, NodeRunningTwoTasks)
{
    Machine m = Machine::describe().nodes(2).ni("CNI16Qm").build();
    int got = 0;
    countOn(m, 1, kPing, &got);
    m.spawn(0, [](Machine &m) -> CoTask<void> {
        co_await m.proc(0).delay(300);
        co_await m.endpoint(0).send(1, kPing);
        co_await m.proc(0).delay(500);
        co_await m.endpoint(0).send(1, kPing);
    }(m));
    m.spawn(1, awaitCount(m.endpoint(1), &got, 2));
    // A second program on the receiving node: its accesses could evict
    // or race the lines a quiet poll reads.
    m.spawn(1, [](Machine &m) -> CoTask<void> {
        for (int i = 0; i < 20; ++i) {
            co_await m.proc(1).delay(37);
            co_await m.proc(1).touch(kUserBufBase + Addr(i) * 64, 64,
                                     i % 2 == 0);
        }
    }(m));
    const Obs obs = observe(m, m.run());
    EXPECT_EQ(pollsElided(m), 0u);
    const Obs want{1801, 141, 353, 0xa1e2316be581e8e7ULL};
    EXPECT_EQ(obs, want);
}

TEST(IdlePoll, TwoContextNode)
{
    Machine m = Machine::describe().nodes(2).ni("CNI512Q").contexts(2).build();
    int got[2] = {0, 0};
    for (int ctx = 0; ctx < 2; ++ctx) {
        m.endpoint(1, ctx).onMessage(
            kPing, [&got, ctx](const UserMsg &) -> CoTask<void> {
                ++got[ctx];
                co_return;
            });
        m.spawn(0, [](Machine &m, int ctx) -> CoTask<void> {
            co_await m.proc(0).delay(150 + Tick(ctx) * 260);
            co_await m.endpoint(0, ctx).send(1, kPing);
        }(m, ctx));
        m.spawn(1, awaitCount(m.endpoint(1, ctx), &got[ctx], 1));
    }
    const Obs obs = observe(m, m.run());
    EXPECT_EQ(pollsElided(m), 0u);
    const Obs want{811, 152, 302, 0xb0a50e8efaef1084ULL};
    EXPECT_EQ(obs, want);
}

// ---- the predicate contract ------------------------------------------------

/**
 * Node 1's program, not a node-0 handler, makes node 0's predicate true
 * at tick 2000: pollUntil's contract forbids that, pollEachUntil does
 * not.
 */
Tick
flagFromOtherNode(Machine &m, bool eachPoll)
{
    int flag = 0;
    m.spawn(1, [](Machine &m, int *flag) -> CoTask<void> {
        co_await m.proc(1).delay(2000);
        *flag = 1;
    }(m, &flag));
    const auto set = [&flag] { return flag >= 1; };
    m.spawn(0, eachPoll ? m.endpoint(0).pollEachUntil(set)
                        : m.endpoint(0).pollUntil(set));
    return m.run();
}

TEST(IdlePoll, PollEachUntilWaitsOnAnotherNode)
{
    Machine m = Machine::describe().nodes(2).ni("CNI16Qm").build();
    const Obs obs = observe(m, flagFromOtherNode(m, true));
    EXPECT_EQ(pollsElided(m), 0u);
    const Obs want{2002, 320, 638, 0xca22a1cf9e401419ULL};
    EXPECT_EQ(obs, want);
}

TEST(IdlePollDeathTest, PredicateReadingAnotherNodesCounterPanics)
{
    EXPECT_DEATH(
        {
            Machine m = Machine::describe().nodes(2).ni("CNI16Qm").build();
            flagFromOtherNode(m, false);
        },
        "predicate");
}

} // namespace
} // namespace cni
