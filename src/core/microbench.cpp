#include "core/microbench.hpp"

#include <numeric>
#include <vector>

#include "ni/registry.hpp"
#include "sim/logging.hpp"
#include "sim/report.hpp"

namespace cni
{

namespace
{
constexpr Port kPingPort = 100;
constexpr Port kPongPort = 101;
constexpr Port kStreamPort = 102;

/** Does either measurement endpoint use a cachable-queue design? */
bool
usesCachableQueues(const MachineSpec &spec)
{
    for (NodeId n : {NodeId(0), NodeId(1)}) {
        const NiTraits *t = NiRegistry::instance().traits(spec.node(n).ni);
        if (t && t->queueBased)
            return true;
    }
    return false;
}

} // namespace

bool
runMeasured(Machine &m, const MeasureOpts &opts, Tick *ticks)
{
    const Tick t = opts.timeoutTicks == 0 ? m.run()
                                          : m.runUntil(opts.timeoutTicks);
    if (ticks)
        *ticks = t;
    return opts.timeoutTicks == 0 || m.workloadDone();
}

void
addRunReport(const std::string &label, const Machine &m,
             const MeasureOpts &opts)
{
    ReportSink &sink = opts.sink ? *opts.sink : report::global();
    if (sink.enabled())
        sink.add(label, m.report());
}

LatencyResult
roundTripLatency(const MachineSpec &spec, std::size_t msgBytes, int rounds,
                 int warmup, const MeasureOpts &opts)
{
    // Steady state requires wrapping the largest cachable queue at least
    // once so slot writes become address-only upgrades, not cold misses.
    if (usesCachableQueues(spec))
        warmup = std::max(warmup, 512 / kBlocksPerSlot + 8);
    Machine sys(spec);
    Endpoint &e0 = sys.endpoint(0);
    Endpoint &e1 = sys.endpoint(1);

    // Workload state is kept strictly node-local (pings on node 1,
    // pongs/samples on node 0): under the sharded kernel the two nodes
    // run on different host threads, so cross-node shared variables
    // would be both racy and nondeterministic.
    int pongs = 0;
    int pings = 0;
    std::vector<std::uint8_t> payload(msgBytes, 0xab);

    // Echo server on node 1.
    e1.onMessage(kPingPort, [&](const UserMsg &u) -> CoTask<void> {
        ++pings;
        co_await e1.send(0, kPongPort, u.payload.data(), u.payload.size());
    });
    e0.onMessage(kPongPort, [&](const UserMsg &) -> CoTask<void> {
        ++pongs;
        co_return;
    });

    std::vector<Tick> samples;
    sys.spawn(0, [](Machine &sys, Endpoint &e0,
                    std::vector<std::uint8_t> &payload, int rounds,
                    int warmup, int &pongs,
                    std::vector<Tick> &samples) -> CoTask<void> {
        for (int r = 0; r < warmup + rounds; ++r) {
            const Tick start = sys.eq(0).now();
            co_await e0.send(1, kPingPort, payload.data(), payload.size());
            const int want = r + 1;
            co_await e0.pollUntil([&] { return pongs >= want; });
            if (r >= warmup)
                samples.push_back(sys.eq(0).now() - start);
        }
    }(sys, e0, payload, rounds, warmup, pongs, samples));

    // Node 1 is done once it has echoed every ping (the final echo's
    // delivery completes in hardware after the send returns).
    sys.spawn(1, [](Endpoint &e1, int total, int *seen) -> CoTask<void> {
        co_await e1.pollUntil([=] { return *seen >= total; });
    }(e1, warmup + rounds, &pings));

    const bool completed = runMeasured(sys, opts);
    addRunReport("roundTripLatency " + sys.spec().label() + " " +
                     std::to_string(msgBytes) + "B",
                 sys, opts);

    if (!completed) {
        LatencyResult res;
        res.completed = false;
        return res;
    }
    cni_assert(!samples.empty());
    const double mean =
        std::accumulate(samples.begin(), samples.end(), 0.0) /
        samples.size();
    LatencyResult res;
    res.cycles = static_cast<Tick>(mean);
    res.microseconds = mean / kCyclesPerMicrosecond;
    return res;
}

BandwidthResult
streamBandwidth(const MachineSpec &spec, std::size_t msgBytes, int messages,
                int warmup, const MeasureOpts &opts)
{
    // Steady state requires wrapping the largest cachable queue (128
    // slots) before the timed window starts, so slot writes are upgrades
    // rather than cold misses.
    if (usesCachableQueues(spec)) {
        const int fragsPer = static_cast<int>(std::max<std::size_t>(
            1, (msgBytes + kNetworkPayloadBytes - 1) / kNetworkPayloadBytes));
        warmup = std::max(warmup, (160 + fragsPer - 1) / fragsPer);
        messages = std::max(messages, warmup * 3);
    }
    Machine sys(spec);
    Endpoint &e0 = sys.endpoint(0);
    Endpoint &e1 = sys.endpoint(1);

    int received = 0;
    Tick warmTick = 0;
    Tick endTick = 0;

    e1.onMessage(kStreamPort, [&](const UserMsg &) -> CoTask<void> {
        // Timestamps on the receiving node's own clock (its shard queue
        // under the sharded kernel).
        ++received;
        if (received == warmup)
            warmTick = sys.eq(1).now();
        if (received == messages)
            endTick = sys.eq(1).now();
        co_return;
    });

    std::vector<std::uint8_t> payload(msgBytes, 0x5c);
    sys.spawn(0, [](Endpoint &e0, std::vector<std::uint8_t> &payload,
                    int messages) -> CoTask<void> {
        for (int i = 0; i < messages; ++i) {
            co_await e0.send(1, kStreamPort, payload.data(),
                             payload.size());
        }
    }(e0, payload, messages));

    sys.spawn(1, [](Endpoint &e1, int messages, int *received)
                  -> CoTask<void> {
        co_await e1.pollUntil([=] { return *received >= messages; });
    }(e1, messages, &received));

    const bool completed = runMeasured(sys, opts);
    addRunReport("streamBandwidth " + sys.spec().label() + " " +
                     std::to_string(msgBytes) + "B",
                 sys, opts);
    if (!completed) {
        BandwidthResult res;
        res.completed = false;
        return res;
    }
    cni_assert(endTick > warmTick);

    const double bytes =
        static_cast<double>(messages - warmup) * msgBytes;
    const double cycles = static_cast<double>(endTick - warmTick);
    BandwidthResult res;
    // bytes per cycle * 200e6 cycles/s / 1e6 = MB/s
    res.megabytesPerSec = bytes / cycles * kCyclesPerMicrosecond;
    res.relativeToLocalMax = res.megabytesPerSec / kLocalQueueMaxMBps;
    return res;
}

} // namespace cni
