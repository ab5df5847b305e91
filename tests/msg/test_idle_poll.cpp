/**
 * @file
 * Idle-poll fast-forward (Endpoint::pollUntil) changes nothing a run
 * reports. Every scenario runs twice: as Machine arms it, and with every
 * layer disarmed, so that pollUntil runs the per-poll pollEachUntil.
 * Both runs must match the pins — the final tick, the empty-poll and
 * load-hit counters, and an FNV-1a digest of Machine::report() with its
 * "kernel" section cut out, recorded with the per-poll loop — and agree
 * on the statistics no report shows (store buffers). The
 * fast-forwarded run's kernel ledger must add up: executed +
 * events_elided is what the per-poll run executed. So a fast-forward
 * that lands a cycle late, charges one poll too few, or reorders one
 * same-tick event fails here.
 *
 * The scenarios aim at the edges of the quiet-poll argument for each
 * kind of poll (a CNIiQ header hit; an NI2w or CNI4 status load on the
 * memory bus or the cache bus): arrivals at every phase of the poll
 * period around the fabric latency, a slot write in flight when the
 * receiver decides, a CNI4 send CDR with blocks left to pull, uncached
 * stores still in the store buffer, refused deliveries and their
 * retries, a bounded runUntil stopping mid-spin, quiet waits many fabric
 * latencies long, and nodes where nothing may be skipped (two tasks, two
 * contexts, an NI behind the I/O bridge). A predicate another node makes
 * true breaks pollUntil's contract and must die loudly; pollEachUntil
 * waits on it with the per-poll loop.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bus/timing.hpp"
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

/** `key` of a serial report's "kernel" object (0 when absent). */
std::uint64_t
kernelCount(const std::string &report, const char *key)
{
    const std::size_t kernel = report.find("\"kernel\":");
    const std::size_t end = report.find('}', kernel);
    const std::string k = std::string("\"") + key + "\":";
    const std::size_t at = report.find(k, kernel);
    return at > end ? 0 : std::stoull(report.substr(at + k.size()));
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

/** A run's pins, its kernel ledger, and what no report shows. */
struct Outcome
{
    Obs obs;
    std::uint64_t executed = 0;
    std::uint64_t pollsElided = 0;
    std::uint64_t eventsElided = 0;
    std::uint64_t unreported = 0; //!< digest of store-buffer stats
};

/** Statistics Machine::report() leaves out: the store buffers. */
std::uint64_t
unreported(Machine &m)
{
    std::string s;
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        for (const auto &[k, v] : m.proc(n).storeBuffer().stats().counters())
            s += k + "=" + std::to_string(v) + ";";
    }
    return fnv1a(s);
}

Outcome
measure(Machine &m, Tick end)
{
    const StatSet s = m.aggregateStats();
    const std::string r = m.report();
    return {{end, s.counter("recv_empty_polls"), s.counter("load_hits"),
             fnv1a(withoutKernel(r))},
            kernelCount(r, "executed"),
            kernelCount(r, "polls_elided"),
            kernelCount(r, "events_elided"),
            unreported(m)};
}

/**
 * Run `scenario` (Machine & -> Outcome) on a machine from `b` as Machine arms
 * it, then with every layer disarmed: both runs must report the same,
 * and the first must account for every event the per-poll run executed.
 * Returns the first.
 */
template <typename Scenario>
Outcome
bothWays(const MachineBuilder &b, Scenario scenario)
{
    Machine fast = b.build();
    const Outcome ff = scenario(fast);
    Machine each = b.build();
    for (NodeId n = 0; n < each.numNodes(); ++n) {
        for (int c = 0; c < each.spec().node(n).contexts; ++c)
            each.endpoint(n, c).setPollHorizon({});
    }
    const Outcome pp = scenario(each);
    EXPECT_EQ(ff.obs, pp.obs);
    EXPECT_EQ(ff.unreported, pp.unreported);
    EXPECT_EQ(pp.pollsElided, 0u);
    EXPECT_EQ(pp.eventsElided, 0u);
    EXPECT_EQ(ff.executed + ff.eventsElided, pp.executed);
    return ff;
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

/** Every kind of quiet poll: a CNIiQ header hit, bus status loads. */
const Config kConfigs[] = {{"CNI16Qm", NiPlacement::MemoryBus},
                           {"CNI512Q", NiPlacement::IoBus},
                           {"NI2w", NiPlacement::MemoryBus},
                           {"CNI4", NiPlacement::MemoryBus},
                           {"NI2w", NiPlacement::CacheBus}};
constexpr int kNumConfigs = 5;

/** Status loads that cross the I/O bridge: never skipped. */
const Config kBridged[] = {{"NI2w", NiPlacement::IoBus},
                           {"CNI4", NiPlacement::IoBus}};

MachineBuilder
machineFor(const Config &c, int nodes = 2)
{
    return Machine::describe().nodes(nodes).ni(c.ni).placement(c.placement);
}

std::string
label(const Config &c)
{
    return std::string(c.ni) + "/" + toString(c.placement);
}

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
Outcome
pingAfter(Machine &m, Tick wait)
{
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
    return measure(m, m.run());
}

Outcome
pingAfter(const Config &c, Tick wait)
{
    return bothWays(machineFor(c),
                    [wait](Machine &m) { return pingAfter(m, wait); });
}

const Obs kPingAfter[kNumConfigs][25] = {
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
    {
        {1396, 36, 0, 0x07dc3570a7b754a2ULL},
        {1397, 36, 0, 0xf82a8c094c3cddcbULL},
        {1398, 36, 0, 0x4d7c3d23e0e8277fULL},
        {1399, 36, 0, 0xad9bf90a0090ec0aULL},
        {1400, 36, 0, 0xcc4cd62ce157ed52ULL},
        {1401, 36, 0, 0x58d7f486d2dc6520ULL},
        {1402, 36, 0, 0xc3bfe35bde75b34dULL},
        {1403, 36, 0, 0x2e23a5444272ddf9ULL},
        {1404, 36, 0, 0xf50fb329b7be5930ULL},
        {1405, 36, 0, 0x82393ad6558c6c00ULL},
        {1406, 36, 0, 0x181226f180276227ULL},
        {1407, 36, 0, 0x933f6ebd64eac3a2ULL},
        {1458, 37, 0, 0xb9af724744193b30ULL},
        {1491, 39, 0, 0xdb4a617bb4c7ef7fULL},
        {1492, 39, 0, 0x74da37a342074739ULL},
        {1493, 39, 0, 0xe6417792ef672b65ULL},
        {1494, 39, 0, 0x197b6e0e25e67914ULL},
        {1495, 39, 0, 0x9452ac66eed08329ULL},
        {1496, 39, 0, 0x5031251b40c0238bULL},
        {1497, 39, 0, 0x4701146092aeb17aULL},
        {1498, 39, 0, 0x86b2521b70df7546ULL},
        {1499, 39, 0, 0x9caf88a32a680b1bULL},
        {1500, 39, 0, 0x891cc2e17d3d3964ULL},
        {1501, 39, 0, 0xed179cb23bd91674ULL},
        {1502, 39, 0, 0xf0b661e5255daa3dULL},
    },
    {
        {1228, 36, 16, 0x45a1181307b7cd02ULL},
        {1229, 36, 16, 0x401c43248505bd26ULL},
        {1230, 36, 16, 0x5ed373eb42592c11ULL},
        {1231, 36, 16, 0x897571e143947365ULL},
        {1232, 36, 16, 0x3ed638484fc52d51ULL},
        {1233, 36, 16, 0x19c289cc6573aa2aULL},
        {1202, 35, 16, 0x3f0ee4ef2a997865ULL},
        {1203, 35, 16, 0x488380651c3790a5ULL},
        {1204, 35, 16, 0xde7cfee19b47af72ULL},
        {1205, 35, 16, 0x22a15891272bf326ULL},
        {1206, 35, 16, 0xf5417525a62ef2b3ULL},
        {1207, 35, 16, 0x395ded3676b7b480ULL},
        {1322, 39, 16, 0x56a6a54268303d3dULL},
        {1323, 39, 16, 0x1a15e50533d1d5ecULL},
        {1324, 39, 16, 0xed2d4dafde134454ULL},
        {1325, 39, 16, 0x03979aec61292369ULL},
        {1326, 39, 16, 0x6c8b281d4af2319bULL},
        {1327, 39, 16, 0xf73374da5063ce05ULL},
        {1328, 39, 16, 0xa35383ed1665a138ULL},
        {1329, 39, 16, 0x5cacb8cb664dd494ULL},
        {1298, 38, 16, 0xac343108dce7fff4ULL},
        {1299, 38, 16, 0x72b03d17ee4cc793ULL},
        {1300, 38, 16, 0x77d04c86e48724d4ULL},
        {1301, 38, 16, 0x51b0c19770b17926ULL},
        {1302, 38, 16, 0xd11721030efdef1dULL},
    },
    {
        {612, 74, 0, 0xba7c84a06dccba41ULL},
        {613, 74, 0, 0x3999444560dec4f6ULL},
        {606, 73, 0, 0x11d3fa2279712dc0ULL},
        {607, 73, 0, 0xa1c2cb673d6d671bULL},
        {608, 73, 0, 0x1c5ec2f47811fb4dULL},
        {609, 73, 0, 0x28c9e4e7773e9ac9ULL},
        {610, 73, 0, 0xf1a1bcaba85c6dcdULL},
        {619, 75, 0, 0xcf92815d9e129046ULL},
        {620, 75, 0, 0x22154b80a75f829cULL},
        {621, 75, 0, 0xa16c9b099eceaa09ULL},
        {614, 74, 0, 0xee05b3b833953c4dULL},
        {615, 74, 0, 0xba6b88bbd49e5673ULL},
        {698, 84, 0, 0xea335f5c94612b43ULL},
        {707, 86, 0, 0xcea6aa5f9239c680ULL},
        {708, 86, 0, 0x0a9ac4670933c0daULL},
        {709, 86, 0, 0xc8b3ac94a10b5eaaULL},
        {702, 85, 0, 0x7a8d22a3d3d24735ULL},
        {703, 85, 0, 0xacc542d92ff1a9aeULL},
        {704, 85, 0, 0x1fb5bbc8ebfaeb94ULL},
        {705, 85, 0, 0x8165e74c20533cdcULL},
        {706, 85, 0, 0xb2ec3b4d71881f67ULL},
        {715, 87, 0, 0xec388442e3d45528ULL},
        {716, 87, 0, 0xbbc6ec33e80dc28cULL},
        {717, 87, 0, 0xbe11b04f6ea1cb49ULL},
        {710, 86, 0, 0x82fd8c8a1d44934aULL},
    },
};

TEST(IdlePoll, ArrivalAtEveryPhaseOfThePollPeriod)
{
    const std::vector<Tick> waits = senderWaits();
    for (int ci = 0; ci < kNumConfigs; ++ci) {
        for (std::size_t i = 0; i < waits.size(); ++i) {
            SCOPED_TRACE(label(kConfigs[ci]) + " wait " +
                         std::to_string(waits[i]));
            EXPECT_EQ(pingAfter(kConfigs[ci], waits[i]).obs,
                      kPingAfter[ci][i]);
        }
    }
}

TEST(IdlePoll, QuietSpinsAreFastForwarded)
{
    for (const Config &c : kConfigs) {
        SCOPED_TRACE(label(c));
        EXPECT_GT(pingAfter(c, 100).pollsElided, 0u);
    }
}

const Tick kBridgedWaits[] = {0, 7, 100};

const Obs kBridgedPings[2][3] = {
    {
        {2336, 36, 0, 0x73f573c744d3e631ULL},
        {2343, 36, 0, 0x475df5595b2bdb4aULL},
        {2436, 38, 0, 0x6efe44b6ce8bcc79ULL},
    },
    {
        {1923, 35, 16, 0x797f28fc6775658bULL},
        {1878, 34, 16, 0x04b92be8911a872fULL},
        {2023, 37, 16, 0x87b9b49a5bad41fbULL},
    },
};

TEST(IdlePoll, StatusPollsAcrossTheBridgeAreNeverSkipped)
{
    for (int ci = 0; ci < 2; ++ci) {
        for (int wi = 0; wi < 3; ++wi) {
            SCOPED_TRACE(label(kBridged[ci]) + " wait " +
                         std::to_string(kBridgedWaits[wi]));
            const Outcome r = pingAfter(kBridged[ci], kBridgedWaits[wi]);
            EXPECT_EQ(r.pollsElided, 0u);
            EXPECT_EQ(r.obs, kBridgedPings[ci][wi]);
        }
    }
}

// ---- quiet waits many fabric latencies long ---------------------------------

/**
 * Node 1 spins for seven fabric latencies before the ping reaches it. A
 * skip ends before now + minLatency(); each one that lands decides again
 * there, so the whole wait runs a few real polls, not one per latency.
 */
const Obs kLongWait[kNumConfigs] = {
    {1843, 268, 548, 0x6384b053ecaad593ULL},
    {2335, 315, 642, 0x7ee7e26101be2927ULL},
    {1996, 54, 0, 0xc414c2ed0e5e56b2ULL},
    {1796, 53, 16, 0xcf99611419d041a9ULL},
    {1212, 149, 0, 0x4387339fcd4bc146ULL},
};

TEST(IdlePoll, LongQuietWaitsChainTheirSkips)
{
    for (int ci = 0; ci < kNumConfigs; ++ci) {
        SCOPED_TRACE(label(kConfigs[ci]));
        // Node 1's empty polls that ran: fast-forwarded run, then per-poll.
        std::vector<std::uint64_t> ran;
        const Outcome r = bothWays(machineFor(kConfigs[ci]), [&ran](Machine &m) {
            const Outcome run = pingAfter(m, 600);
            ran.push_back(m.ni(1).stats().counter("recv_empty_polls") -
                          m.endpoint(1).pollsElided());
            return run;
        });
        EXPECT_EQ(r.obs, kLongWait[ci]);
        ASSERT_EQ(ran.size(), 2u);
        EXPECT_LE(ran[0], 5u) << "of " << ran[1];
    }
}

// ---- two back-to-back arrivals: a slot write in flight ---------------------

Outcome
backToBack(Machine &m, Tick wait, std::size_t bytes)
{
    int got = 0;
    countOn(m, 1, kPing, &got);
    m.spawn(0, [](Machine &m, Tick wait, std::size_t bytes) -> CoTask<void> {
        co_await m.proc(0).delay(wait);
        std::vector<std::uint8_t> b(bytes, 0x3c);
        co_await m.endpoint(0).send(1, kPing, b.data(), b.size());
        co_await m.endpoint(0).send(1, kPing, b.data(), b.size());
    }(m, wait, bytes));
    m.spawn(1, awaitCount(m.endpoint(1), &got, 2));
    return measure(m, m.run());
}

const Tick kB2bWaits[] = {0, 5, 97, 103};
const std::size_t kB2bBytes[] = {8, 600};

const Obs kBackToBack[kNumConfigs][4][2] = {
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
    {
        {{548, 7, 0, 0x7ec12cdd66e605aeULL},
         {6216, 18, 0, 0xca883400191d5301ULL}},
        {{548, 7, 0, 0x7ec12cdd66e605aeULL},
         {6216, 18, 0, 0xca883400191d5301ULL}},
        {{644, 10, 0, 0x6adba24775bf986dULL},
         {6312, 21, 0, 0xc9c995b296dce9e7ULL}},
        {{644, 10, 0, 0x6adba24775bf986dULL},
         {6312, 21, 0, 0xc9c995b296dce9e7ULL}},
    },
    {
        {{580, 9, 4, 0xb4317a65eb382f75ULL},
         {2898, 17, 140, 0xa071833fb1c74118ULL}},
        {{580, 9, 4, 0xb4317a65eb382f75ULL},
         {2898, 17, 140, 0xa071833fb1c74118ULL}},
        {{676, 12, 4, 0xdb3c4ccf3ffd885dULL},
         {2994, 20, 140, 0xb6fcb66bd5e11d8cULL}},
        {{676, 12, 4, 0xdb3c4ccf3ffd885dULL},
         {2994, 20, 140, 0xb6fcb66bd5e11d8cULL}},
    },
    {
        {{268, 17, 0, 0x1c8da23a4dd123adULL},
         {1912, 32, 0, 0xdbfde93aab5aeaa8ULL}},
        {{276, 18, 0, 0x38d688f270492260ULL},
         {1912, 32, 0, 0xdbfde93aab5aeaa8ULL}},
        {{364, 29, 0, 0x5d16a4a67aa0f626ULL},
         {2008, 44, 0, 0xf0f9383cfa037144ULL}},
        {{372, 30, 0, 0x434cede03f36043bULL},
         {2016, 45, 0, 0xb956457a560028c6ULL}},
    },
};

TEST(IdlePoll, BackToBackArrivalsWithASlotWriteInFlight)
{
    for (int ci = 0; ci < kNumConfigs; ++ci) {
        for (int wi = 0; wi < 4; ++wi) {
            for (int bi = 0; bi < 2; ++bi) {
                SCOPED_TRACE(label(kConfigs[ci]) + " wait " +
                             std::to_string(kB2bWaits[wi]) + " bytes " +
                             std::to_string(kB2bBytes[bi]));
                const Outcome r = bothWays(
                    machineFor(kConfigs[ci]), [wi, bi](Machine &m) {
                        return backToBack(m, kB2bWaits[wi], kB2bBytes[bi]);
                    });
                EXPECT_EQ(r.obs, kBackToBack[ci][wi][bi]);
            }
        }
    }
}

// ---- a CNI4 send CDR with blocks left to pull ------------------------------

/**
 * Node 0 streams `msgs` three-fragment messages to node 1 and spins for
 * one pong, which node 1's handler sends after the last one; the handler
 * works `work` cycles per message, so node 1 refuses deliveries and
 * node 0's window reopens late. The CNI4 engine stops pulling its send
 * CDR while two assembled messages wait for window space, so node 0
 * decides with CDR blocks still to pull and an idle bus. It pulls them
 * over the bus when an acknowledgment reopens the window: an event its
 * poll horizon does not bound, so only the device's own state can say
 * the next polls would have the bus to themselves.
 */
Outcome
streamThenWait(Machine &m, int msgs, Tick work)
{
    int got = 0, pongs = 0;
    countOn(m, 0, kPong, &pongs);
    m.endpoint(1).onMessage(kPing, [&m, &got, msgs, work](const UserMsg &)
                                       -> CoTask<void> {
        co_await m.proc(1).delay(work);
        if (++got == msgs)
            co_await m.endpoint(1).send(0, kPong);
    });
    m.spawn(0, [](Machine &m, int msgs, const int *pongs) -> CoTask<void> {
        std::vector<std::uint8_t> b(700, 0x5a);
        for (int i = 0; i < msgs; ++i)
            co_await m.endpoint(0).send(1, kPing, b.data(), b.size());
        co_await awaitCount(m.endpoint(0), pongs, 1);
    }(m, msgs, &pongs));
    m.spawn(1, awaitCount(m.endpoint(1), &got, msgs));
    return measure(m, m.run());
}

struct Stream
{
    int window;
    int msgs;
    Tick work;
};

const Stream kStreams[] = {{1, 6, 300}, {1, 4, 800}, {4, 8, 800}};

const Obs kStreamed[3] = {
    {10998, 188, 481, 0xd0e2a2a228a1f9e6ULL},
    {9659, 212, 321, 0x11f96171a110ea30ULL},
    {18347, 343, 641, 0xf80a67e4b22a9d67ULL},
};

TEST(IdlePoll, Cni4SendCdrStillBeingPulled)
{
    const Config cni4{"CNI4", NiPlacement::MemoryBus};
    for (int si = 0; si < 3; ++si) {
        const Stream &s = kStreams[si];
        SCOPED_TRACE("window " + std::to_string(s.window) + " msgs " +
                     std::to_string(s.msgs) + " work " +
                     std::to_string(s.work));
        const Outcome r = bothWays(machineFor(cni4).window(s.window),
                                   [&s](Machine &m) {
            return streamThenWait(m, s.msgs, s.work);
        });
        EXPECT_EQ(r.obs, kStreamed[si]);
    }
}

// ---- uncached stores still in the store buffer -----------------------------

/**
 * Node 1 sends to node 0 and at once spins for the reply, so it starts
 * spinning with the message's uncached stores still in its store
 * buffer; node 0's handler works `work` cycles before replying.
 */
Outcome
sendThenWait(Machine &m, Tick work)
{
    int hellos = 0, replies = 0;
    countOn(m, 1, kPong, &replies);
    m.endpoint(0).onMessage(kPing, [&m, &hellos, work](const UserMsg &)
                                       -> CoTask<void> {
        ++hellos;
        co_await m.proc(0).delay(work);
        co_await m.endpoint(0).send(1, kPong);
    });
    m.spawn(0, awaitCount(m.endpoint(0), &hellos, 1));
    m.spawn(1, [](Machine &m, const int *replies) -> CoTask<void> {
        std::uint8_t b[100] = {};
        co_await m.endpoint(1).send(0, kPing, b, sizeof b);
        co_await awaitCount(m.endpoint(1), replies, 1);
    }(m, &replies));
    return measure(m, m.run());
}

const Tick kWorks[] = {0, 30, 250};

const Obs kSentFirst[3] = {
    {1171, 37, 0, 0x2254c1ddcc32f448ULL},
    {1203, 38, 0, 0x3bfafb0b8d5f1ca7ULL},
    {1427, 45, 0, 0x298f4af03d63c422ULL},
};

TEST(IdlePoll, Ni2wSpinStartingWithStoresBuffered)
{
    const Config ni2w{"NI2w", NiPlacement::MemoryBus};
    for (int wi = 0; wi < 3; ++wi) {
        SCOPED_TRACE("work " + std::to_string(kWorks[wi]));
        const Outcome r = bothWays(machineFor(ni2w), [wi](Machine &m) {
            return sendThenWait(m, kWorks[wi]);
        });
        EXPECT_EQ(r.obs, kSentFirst[wi]);
    }
}

/**
 * The processor's half of a quiet status poll, asked directly: the load
 * must find its bus to itself. A store on its way to the device, or
 * another request waiting to arbitrate, would make the next poll start
 * late; across the I/O bridge a poll is never quiet.
 */
TEST(IdlePoll, StatusPollIsQuietOnlyWithItsBusToItself)
{
    const Config cases[] = {{"NI2w", NiPlacement::MemoryBus},
                            {"CNI4", NiPlacement::MemoryBus},
                            {"NI2w", NiPlacement::CacheBus},
                            {"NI2w", NiPlacement::IoBus},
                            {"CNI4", NiPlacement::IoBus}};
    for (const Config &c : cases) {
        SCOPED_TRACE(label(c));
        Machine m = machineFor(c).build();
        std::vector<Tick> seen;
        m.spawn(0, [](Machine &m, std::vector<Tick> *seen) -> CoTask<void> {
            Proc &p = m.proc(0);
            const auto quiet = [&m, &p, seen] {
                seen->push_back(m.ni(0).quietPollCycles(p, 0));
            };
            quiet();
            co_await p.uncachedStore(ctxReg(0, kRegSendData), 0);
            quiet(); // the store is still on the bus
            co_await p.membar();
            quiet();
            BusTxn txn;
            txn.kind = TxnKind::UncachedRead;
            txn.addr = ctxReg(0, kRegStatus);
            m.coherence(0).procIssue(txn, nullptr);
            m.coherence(0).procIssue(txn, nullptr);
            quiet(); // the second read waits for the bus
            co_await p.delay(200);
            quiet();
        }(m, &seen));
        m.run();
        const Tick load = c.placement == NiPlacement::IoBus
                              ? 0
                              : BusTimingSpec::forKind(
                                    c.placement == NiPlacement::CacheBus
                                        ? BusKind::CacheBus
                                        : BusKind::MemoryBus)
                                    .uncachedRead;
        EXPECT_EQ(seen, (std::vector<Tick>{load, 0, load, 0, load}));
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
        SCOPED_TRACE("retry " + std::to_string(f.retry));
        std::uint64_t retries = 0;
        const Outcome r = bothWays(
            Machine::describe().nodes(4).ni("CNI16Q").netRetry(f.retry),
            [&f, &retries](Machine &m) {
                int got = 0;
                countOn(m, 0, kPing, &got, f.handlerWork);
                for (NodeId s = 1; s <= 3; ++s) {
                    m.spawn(s, [](Machine &m, NodeId s,
                                  int burst) -> CoTask<void> {
                        std::uint8_t b[200] = {};
                        for (int k = 0; k < 2; ++k) {
                            co_await m.proc(s).delay(Tick(s) * 7 +
                                                     Tick(k) * 9000);
                            for (int i = 0; i < burst; ++i)
                                co_await m.endpoint(s).send(0, kPing, b,
                                                            sizeof b);
                        }
                    }(m, s, f.burst));
                }
                m.spawn(0, awaitCount(m.endpoint(0), &got, 3 * 2 * f.burst));
                const Outcome run = measure(m, m.run());
                retries = m.net().stats().counter("delivery_retries");
                return run;
            });
        EXPECT_GT(retries, 0u);
        EXPECT_GT(r.pollsElided, 0u);
        EXPECT_EQ(r.obs, kFlooded[fi]);
    }
}

// ---- Machine::runUntil stopping mid-spin -----------------------------------

const Tick kLimits[] = {50,  137, 200, 201, 202, 203,
                        204, 205, 206, 350, 480};

Outcome
stopAt(Machine &m, Tick limit)
{
    int got = 0;
    countOn(m, 1, kPing, &got);
    m.spawn(0, [](Machine &m) -> CoTask<void> {
        co_await m.proc(0).delay(400);
        co_await m.endpoint(0).send(1, kPing);
    }(m));
    m.spawn(1, awaitCount(m.endpoint(1), &got, 1));
    const Outcome run = measure(m, m.runUntil(limit));
    m.run(); // finish the tasks so no coroutine frame outlives the machine
    return run;
}

/** CNI16Qm, NI2w and CNI4 on the memory bus. */
const int kStopConfigs[] = {0, 2, 3};

const Obs kStopAt[3][11] = {
    {
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
    },
    {
        {60, 2, 0, 0xd430a564f3ca16deULL},
        {156, 5, 0, 0xea1ce68c4005a5b0ULL},
        {220, 7, 0, 0x3e74f2c4787c7b61ULL},
        {220, 7, 0, 0x3e74f2c4787c7b61ULL},
        {220, 7, 0, 0x3e74f2c4787c7b61ULL},
        {220, 7, 0, 0x3e74f2c4787c7b61ULL},
        {220, 7, 0, 0x3e74f2c4787c7b61ULL},
        {220, 7, 0, 0x3e74f2c4787c7b61ULL},
        {220, 7, 0, 0x3e74f2c4787c7b61ULL},
        {352, 11, 0, 0x0cf8e9cc7ead15b0ULL},
        {480, 15, 0, 0xa15b6d5ccb7cf1b5ULL},
    },
    {
        {60, 2, 0, 0xa98458b317adf74cULL},
        {156, 5, 0, 0xcdc9119bc4cd92aeULL},
        {220, 7, 0, 0xfdd1bd344596b1e7ULL},
        {220, 7, 0, 0xfdd1bd344596b1e7ULL},
        {220, 7, 0, 0xfdd1bd344596b1e7ULL},
        {220, 7, 0, 0xfdd1bd344596b1e7ULL},
        {220, 7, 0, 0xfdd1bd344596b1e7ULL},
        {220, 7, 0, 0xfdd1bd344596b1e7ULL},
        {220, 7, 0, 0xfdd1bd344596b1e7ULL},
        {352, 11, 0, 0xf595e482842cc002ULL},
        {480, 15, 0, 0x19c5de3afc5fecbcULL},
    },
};

TEST(IdlePoll, BoundedRunStopsMidSpin)
{
    for (int si = 0; si < 3; ++si) {
        const Config &c = kConfigs[kStopConfigs[si]];
        std::uint64_t elided = 0;
        for (int i = 0; i < 11; ++i) {
            SCOPED_TRACE(label(c) + " limit " + std::to_string(kLimits[i]));
            const Tick limit = kLimits[i];
            const Outcome r =
                bothWays(machineFor(c),
                         [limit](Machine &m) { return stopAt(m, limit); });
            elided += r.pollsElided;
            EXPECT_EQ(r.obs, kStopAt[si][i]);
        }
        EXPECT_GT(elided, 0u) << label(c);
    }
}

// ---- nodes where nothing may be skipped ------------------------------------

TEST(IdlePoll, NodeRunningTwoTasks)
{
    const Outcome r = bothWays(
        Machine::describe().nodes(2).ni("CNI16Qm"), [](Machine &m) {
            int got = 0;
            countOn(m, 1, kPing, &got);
            m.spawn(0, [](Machine &m) -> CoTask<void> {
                co_await m.proc(0).delay(300);
                co_await m.endpoint(0).send(1, kPing);
                co_await m.proc(0).delay(500);
                co_await m.endpoint(0).send(1, kPing);
            }(m));
            m.spawn(1, awaitCount(m.endpoint(1), &got, 2));
            // A second program on the receiving node: its accesses could
            // evict or race the lines a quiet poll reads.
            m.spawn(1, [](Machine &m) -> CoTask<void> {
                for (int i = 0; i < 20; ++i) {
                    co_await m.proc(1).delay(37);
                    co_await m.proc(1).touch(kUserBufBase + Addr(i) * 64,
                                             64, i % 2 == 0);
                }
            }(m));
            return measure(m, m.run());
        });
    EXPECT_EQ(r.pollsElided, 0u);
    const Obs want{1801, 141, 353, 0xa1e2316be581e8e7ULL};
    EXPECT_EQ(r.obs, want);
}

TEST(IdlePoll, TwoContextNode)
{
    const Outcome r = bothWays(
        Machine::describe().nodes(2).ni("CNI512Q").contexts(2),
        [](Machine &m) {
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
            return measure(m, m.run());
        });
    EXPECT_EQ(r.pollsElided, 0u);
    const Obs want{811, 152, 302, 0xb0a50e8efaef1084ULL};
    EXPECT_EQ(r.obs, want);
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
    const Outcome r =
        bothWays(Machine::describe().nodes(2).ni("CNI16Qm"), [](Machine &m) {
            return measure(m, flagFromOtherNode(m, true));
        });
    EXPECT_EQ(r.pollsElided, 0u);
    const Obs want{2002, 320, 638, 0xca22a1cf9e401419ULL};
    EXPECT_EQ(r.obs, want);
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
