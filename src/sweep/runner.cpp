#include "sweep/runner.hpp"

#include <algorithm>
#include <vector>

#include "apps/apps.hpp"
#include "core/machine_params.hpp"
#include "core/microbench.hpp"
#include "sim/json.hpp"
#include "sim/random.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace cni::sweep
{

namespace
{

/** A point's workload parameters, parsed and range-checked. */
struct WorkloadArgs
{
    long long bytes = 64;
    long long count = 0; //!< roundtrip rounds, bandwidth messages
    long long warmup = 0;
    long long sharing = 1;
    std::string app;
};

/** The runner's workloads and the parameters each takes. */
const std::vector<std::pair<std::string, std::vector<std::string>>>
    kWorkloads = {
        {"roundtrip", {"bytes", "rounds", "warmup"}},
        {"bandwidth", {"bytes", "messages", "warmup"}},
        {"coverage", {"sharing"}},
        {"macro", {"app"}},
        {"hotspot", {}},
};

/** Workload parameter `name` as an integer in [lo, hi]; `def` if absent. */
bool
intParam(const ParamList &wl, const char *name, long long def, long long lo,
         long long hi, long long *out, std::string *why)
{
    const std::string text = paramOr(wl, name, std::to_string(def));
    if (parseNumber(text, out) && *out >= lo && *out <= hi)
        return true;
    if (why)
        *why = std::string("parameter '") + name + "': got '" + text +
               "', want an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]";
    return false;
}

/** Check `wl` against `workload`'s parameters and parse them into `a`. */
bool
parseWorkload(const std::string &workload, const ParamList &wl,
              WorkloadArgs *a, std::string *why)
{
    const auto def = std::find_if(
        kWorkloads.begin(), kWorkloads.end(),
        [&](const auto &w) { return w.first == workload; });
    if (def == kWorkloads.end()) {
        if (why)
            *why = "unknown workload '" + workload +
                   "' (try roundtrip, bandwidth, coverage, macro, hotspot)";
        return false;
    }
    for (const auto &[k, v] : wl) {
        if (std::find(def->second.begin(), def->second.end(), k) ==
            def->second.end()) {
            if (why)
                *why = "workload '" + workload +
                       "' does not take parameter '" + k + "'";
            return false;
        }
    }
    constexpr long long kMax = 1 << 20;
    if (workload == "roundtrip") {
        return intParam(wl, "bytes", 64, 1, kMax, &a->bytes, why) &&
               intParam(wl, "rounds", 16, 1, kMax, &a->count, why) &&
               intParam(wl, "warmup", 4, 0, kMax, &a->warmup, why);
    }
    if (workload == "bandwidth") {
        // By default about 64 KiB cross at every size.
        return intParam(wl, "bytes", 64, 1, kMax, &a->bytes, why) &&
               intParam(wl, "messages",
                        std::max(24LL, 65536 / std::max(a->bytes, 64LL)),
                        1, kMax, &a->count, why) &&
               intParam(wl, "warmup", a->count / 8, 0, kMax, &a->warmup,
                        why);
    }
    if (workload == "coverage")
        return intParam(wl, "sharing", 1, 1, 4096, &a->sharing, why);
    if (workload == "macro") {
        a->app = paramOr(wl, "app", "");
        const std::vector<std::string> &apps = macrobenchmarkNames();
        if (std::find(apps.begin(), apps.end(), a->app) == apps.end()) {
            std::string want;
            for (const std::string &name : apps)
                want += (want.empty() ? "" : ", ") + name;
            if (why)
                *why = "parameter 'app': got '" + a->app + "', want one of " +
                       want;
            return false;
        }
    }
    return true;
}

struct WorkloadMetrics
{
    bool completed = true;
    std::vector<std::pair<std::string, double>> values;
};

/** fig_coverage's scan + hotspot workload (see that bench's header). */
void
runCoverage(const MachineSpec &spec, const WorkloadArgs &a,
            const MeasureOpts &opts, WorkloadMetrics *out)
{
    Machine m(spec);
    const int nodes = m.numNodes();
    const int senders = std::min<int>(int(a.sharing), nodes - 1);
    const int expected = senders * kCoverageMsgsPerSender;

    // Run-local receive counter: the original bench used a function-
    // static here, which two concurrent coverage points would share —
    // exactly the class of bug the sweep daemon cannot tolerate.
    int received = 0;
    m.endpoint(0).onMessage(1, [&](const UserMsg &) -> CoTask<void> {
        ++received;
        co_return;
    });

    for (NodeId n = 0; n < nodes; ++n) {
        m.spawn(n, [](Machine &m, NodeId n) -> CoTask<void> {
            for (int pass = 0; pass < kCoverageScanPasses; ++pass) {
                for (int i = 0; i < kCoverageWorkingBlocks; ++i) {
                    co_await m.proc(n).write64(
                        kMemBase + Addr(i) * kBlockBytes,
                        (std::uint64_t(pass) << 32) | std::uint64_t(i));
                }
            }
        }(m, n));
    }
    std::vector<std::uint8_t> payload(kCoverageMsgBytes, 0x5a);
    for (NodeId n = 1; n <= senders; ++n) {
        m.spawn(n, [](Machine &m, NodeId n,
                      const std::vector<std::uint8_t> &p) -> CoTask<void> {
            co_await m.proc(n).delay(kCoveragePhaseSplit + Tick(n) * 40);
            for (int i = 0; i < kCoverageMsgsPerSender; ++i) {
                co_await m.endpoint(n).send(0, 1, p.data(), p.size());
                co_await m.proc(n).delay(200);
            }
        }(m, n, payload));
    }
    m.spawn(0, [](Machine &m, int expected, int *received) -> CoTask<void> {
        co_await m.proc(0).delay(kCoveragePhaseSplit);
        co_await m.endpoint(0).pollUntil(
            [=] { return *received >= expected; });
    }(m, expected, &received));

    Tick cycles = 0;
    out->completed = runMeasured(m, opts, &cycles);
    const StatSet agg = m.aggregateStats();
    out->values = {
        {"cycles", double(cycles)},
        {"remote_miss_latency_mean",
         agg.scalar("remote_miss_latency").mean()},
        {"remote_misses", double(agg.scalar("remote_miss_latency").count())},
        {"dir_recalls", double(agg.counter("dir_recalls"))},
        {"dir_evictions", double(agg.counter("dir_evictions"))},
        {"fwd3_supplies", double(agg.counter("fwd3_supplies"))},
    };
    addRunReport("coverage " + spec.label(), m, opts);
}

/** fig_congestion's many-to-one traffic (kHotspot* above). */
void
runHotspot(const MachineSpec &spec, std::uint64_t seed,
           const MeasureOpts &opts, WorkloadMetrics *out)
{
    Machine m(spec);
    const int expected = (m.numNodes() - 1) * kHotspotMsgsPerSender;
    int received = 0;
    m.endpoint(0).onMessage(
        1, [&received](const UserMsg &) -> CoTask<void> {
            ++received;
            co_return;
        });

    // Seeded start jitter staggers the senders, so different seeds
    // exercise different injection collision patterns.
    Rng rng(seed);
    std::vector<std::uint8_t> payload(kHotspotMsgBytes, 0xab);
    for (NodeId n = 1; n < m.numNodes(); ++n) {
        const Tick jitter = Tick(rng.below(64));
        m.spawn(n, [](Machine &m, NodeId n, Tick jitter,
                      const std::vector<std::uint8_t> &p) -> CoTask<void> {
            co_await m.proc(n).delay(jitter);
            for (int i = 0; i < kHotspotMsgsPerSender; ++i)
                co_await m.endpoint(n).send(0, 1, p.data(), p.size());
        }(m, n, jitter, payload));
    }
    m.spawn(0, [](Machine &m, int &received, int expected) -> CoTask<void> {
        co_await m.endpoint(0).pollUntil(
            [&received, expected] { return received >= expected; });
    }(m, received, expected));

    Tick cycles = 0;
    out->completed = runMeasured(m, opts, &cycles);
    const double us = cycles / kCyclesPerMicrosecond;
    const StatSet &net = m.net().stats();
    out->values = {
        {"cycles", double(cycles)},
        {"mbps", double(expected) * kHotspotMsgBytes / us}, // B/us == MB/s
        {"fabric_wait", double(net.counter("link_wait_cycles") +
                               net.counter("egress_wait_cycles") +
                               net.counter("ingress_wait_cycles"))},
        {"retries", double(net.counter("delivery_retries"))},
        {"retry_wait", double(net.counter("retry_wait_cycles"))},
    };
    addRunReport(std::string(m.net().kind()) + "/hotspot", m, opts);
}

/** Run point `p`'s workload; its machine reports into opts.sink. */
void
runWorkload(const SweepPoint &p, const MachineSpec &spec,
            const WorkloadArgs &a, const MeasureOpts &opts,
            WorkloadMetrics *out)
{
    if (p.workload == "roundtrip") {
        const LatencyResult r = roundTripLatency(
            spec, std::size_t(a.bytes), int(a.count), int(a.warmup), opts);
        out->completed = r.completed;
        out->values = {{"microseconds", r.microseconds},
                       {"cycles", double(r.cycles)}};
    } else if (p.workload == "bandwidth") {
        const BandwidthResult r = streamBandwidth(
            spec, std::size_t(a.bytes), int(a.count), int(a.warmup), opts);
        out->completed = r.completed;
        out->values = {{"mbps", r.megabytesPerSec},
                       {"relative_to_local_max", r.relativeToLocalMax}};
    } else if (p.workload == "coverage") {
        runCoverage(spec, a, opts, out);
    } else if (p.workload == "macro") {
        const AppResult r = runMacrobenchmark(a.app, spec, p.seed, opts);
        out->completed = r.completed;
        out->values = {{"cycles", double(r.ticks)},
                       {"mem_bus_occupied", double(r.memBusOccupied)}};
    } else {
        runHotspot(spec, p.seed, opts, out);
    }
}

/**
 * Shared front half of validatePoint/runPoint: machine params applied
 * and validated, workload params split off and parsed.
 */
bool
preparePoint(const SweepPoint &p, MachineBuilder *b, WorkloadArgs *a,
             std::string *why)
{
    ParamList wl;
    if (!applyMachineParams(p.params, b, &wl, why) ||
        !parseWorkload(p.workload, wl, a, why))
        return false;
    if (b->spec().numNodes < 2 && p.workload != "coverage") {
        if (why)
            *why = "workload '" + p.workload +
                   "' sends messages between nodes: nodes must be >= 2";
        return false;
    }
    return b->valid(why);
}

void
writeParams(JsonWriter *w, const ParamList &params)
{
    w->key("params").beginObject();
    for (const auto &[k, v] : params)
        w->key(k).value(v);
    w->endObject();
}

} // namespace

std::string
paramOr(const ParamList &params, const std::string &name,
        const std::string &def)
{
    for (const auto &[k, v] : params) {
        if (k == name)
            return v;
    }
    return def;
}

bool
applyMachineParams(const ParamList &params, MachineBuilder *b,
                   ParamList *workloadParams, std::string *why)
{
    for (const auto &[name, value] : params) {
        if (const MachineParam *p = findMachineParam(name)) {
            if (!p->apply(*b, value, why))
                return false;
        } else {
            workloadParams->emplace_back(name, value);
        }
    }
    return true;
}

bool
validatePoint(const SweepPoint &p, std::string *why)
{
    MachineBuilder b;
    WorkloadArgs a;
    return preparePoint(p, &b, &a, why);
}

PointResult
runPoint(const SweepPoint &p, Tick timeoutTicks)
{
    PointResult r;
    r.key = p.key;

    JsonWriter w;
    w.beginObject();
    w.key("key").value(p.key);
    w.key("workload").value(p.workload);
    w.key("seed").value(static_cast<unsigned long long>(p.seed));
    writeParams(&w, p.params);

    MachineBuilder b;
    WorkloadArgs a;
    std::string why;
    if (!preparePoint(p, &b, &a, &why)) {
        r.status = "invalid";
        r.error = why;
        w.key("status").value(r.status);
        w.key("error").value(why);
        w.endObject();
        r.doc = w.str();
        return r;
    }

    r.label = b.spec().label();
    ReportSink sink;
    sink.enable(true);
    WorkloadMetrics metrics;
    runWorkload(p, b.spec(), a, MeasureOpts{&sink, timeoutTicks}, &metrics);
    std::vector<ReportSink::Run> runs = sink.take();
    if (!runs.empty()) {
        r.reportLabel = std::move(runs.back().label);
        r.machineJson = std::move(runs.back().json);
    }

    r.status = metrics.completed ? "ok" : "timeout";
    r.metrics = std::move(metrics.values);
    w.key("status").value(r.status);
    w.key("label").value(r.label);
    if (r.status == "ok") {
        w.key("metrics").beginObject();
        for (const auto &[k, v] : r.metrics)
            w.key(k).value(v);
        w.endObject();
    }
    if (!r.machineJson.empty())
        w.key("machine").raw(r.machineJson);
    w.endObject();
    r.doc = w.str();
    return r;
}

} // namespace cni::sweep
