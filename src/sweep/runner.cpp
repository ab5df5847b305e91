#include "sweep/runner.hpp"

#include <algorithm>
#include <vector>

#include "core/machine_params.hpp"
#include "core/microbench.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace cni::sweep
{

namespace
{

/** Strict integer parse; trailing garbage and out-of-range both fail. */
bool
parseInt(const std::string &text, long long lo, long long hi,
         long long *out)
{
    long long v = 0;
    if (!parseNumber(text, &v) || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

bool
failParam(const std::string &name, const std::string &value,
          const std::string &want, std::string *why)
{
    if (why)
        *why = "parameter '" + name + "': got '" + value + "', want " +
               want;
    return false;
}

struct WorkloadMetrics
{
    bool completed = true;
    std::vector<std::pair<std::string, double>> values;
};

/**
 * The paper's two microbenchmarks, via core/microbench with a per-point
 * report sink and tick budget.
 */
bool
runMicrobench(const std::string &workload, const MachineSpec &spec,
              const ParamList &wl, Tick timeoutTicks,
              WorkloadMetrics *out, std::string *machineJson,
              std::string *why)
{
    long long bytes = 64, warmup = 0, reps = 0;
    if (!parseInt(paramOr(wl, "bytes", "64"), 1, 1 << 20, &bytes))
        return failParam("bytes", paramOr(wl, "bytes", "64"),
                         "an integer in [1, 1048576]", why);

    ReportSink sink;
    sink.enable(true);
    MeasureOpts opts;
    opts.sink = &sink;
    opts.timeoutTicks = timeoutTicks;

    if (workload == "roundtrip") {
        if (!parseInt(paramOr(wl, "rounds", "16"), 1, 1 << 20, &reps))
            return failParam("rounds", paramOr(wl, "rounds", "16"),
                             "an integer in [1, 1048576]", why);
        if (!parseInt(paramOr(wl, "warmup", "4"), 0, 1 << 20, &warmup))
            return failParam("warmup", paramOr(wl, "warmup", "4"),
                             "an integer in [0, 1048576]", why);
        const LatencyResult r = roundTripLatency(
            spec, std::size_t(bytes), int(reps), int(warmup), opts);
        out->completed = r.completed;
        out->values = {{"microseconds", r.microseconds},
                       {"cycles", double(r.cycles)}};
    } else {
        if (!parseInt(paramOr(wl, "messages", "64"), 1, 1 << 20, &reps))
            return failParam("messages", paramOr(wl, "messages", "64"),
                             "an integer in [1, 1048576]", why);
        if (!parseInt(paramOr(wl, "warmup", "8"), 0, 1 << 20, &warmup))
            return failParam("warmup", paramOr(wl, "warmup", "8"),
                             "an integer in [0, 1048576]", why);
        const BandwidthResult r = streamBandwidth(
            spec, std::size_t(bytes), int(reps), int(warmup), opts);
        out->completed = r.completed;
        out->values = {{"mbps", r.megabytesPerSec},
                       {"relative_to_local_max", r.relativeToLocalMax}};
    }

    std::vector<ReportSink::Run> runs = sink.take();
    if (!runs.empty())
        *machineJson = std::move(runs.back().json);
    return true;
}

/** fig_coverage's scan + hotspot workload (see that bench's header). */
bool
runCoverage(const MachineSpec &spec, const ParamList &wl,
            Tick timeoutTicks, WorkloadMetrics *out,
            std::string *machineJson, std::string *why)
{
    long long sharing = 1;
    if (!parseInt(paramOr(wl, "sharing", "1"), 1, 4096, &sharing))
        return failParam("sharing", paramOr(wl, "sharing", "1"),
                         "an integer in [1, 4096]", why);

    Machine m(spec);
    const int nodes = m.numNodes();
    const int senders = std::min<int>(int(sharing), nodes - 1);
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
    if (timeoutTicks == 0) {
        cycles = m.run();
    } else {
        cycles = m.runUntil(timeoutTicks);
        out->completed = m.workloadDone();
    }

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
    *machineJson = m.report();
    return true;
}

/** Workload-parameter names each workload accepts. */
bool
workloadParamsKnown(const std::string &workload, const ParamList &wl,
                    std::string *why)
{
    auto known = [&](std::initializer_list<const char *> names) {
        for (const auto &[k, v] : wl) {
            bool ok = false;
            for (const char *n : names)
                ok = ok || (k == n);
            if (!ok) {
                if (why)
                    *why = "workload '" + workload +
                           "' does not take parameter '" + k + "'";
                return false;
            }
        }
        return true;
    };
    if (workload == "roundtrip")
        return known({"bytes", "rounds", "warmup"});
    if (workload == "bandwidth")
        return known({"bytes", "messages", "warmup"});
    if (workload == "coverage")
        return known({"sharing"});
    if (why)
        *why = "unknown workload '" + workload +
               "' (try roundtrip, bandwidth, coverage)";
    return false;
}

/**
 * Shared front half of validatePoint/runPoint: machine params applied
 * and validated, workload params split off and name-checked.
 */
bool
preparePoint(const SweepPoint &p, MachineBuilder *b, ParamList *wl,
             std::string *why)
{
    if (!applyMachineParams(p.params, b, wl, why))
        return false;
    if (!workloadParamsKnown(p.workload, *wl, why))
        return false;
    const bool needsTwoNodes =
        p.workload == "roundtrip" || p.workload == "bandwidth";
    if (b->spec().numNodes < 2 && needsTwoNodes) {
        if (why)
            *why = "workload '" + p.workload +
                   "' messages between nodes 0 and 1: nodes must be "
                   ">= 2";
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
    ParamList wl;
    return preparePoint(p, &b, &wl, why);
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
    ParamList wl;
    std::string why;
    if (!preparePoint(p, &b, &wl, &why)) {
        r.status = "invalid";
        r.error = why;
        w.key("status").value(r.status);
        w.key("error").value(why);
        w.endObject();
        r.doc = w.str();
        return r;
    }

    r.label = b.spec().label();
    WorkloadMetrics metrics;
    bool ok;
    if (p.workload == "coverage")
        ok = runCoverage(b.spec(), wl, timeoutTicks, &metrics,
                         &r.machineJson, &why);
    else
        ok = runMicrobench(p.workload, b.spec(), wl, timeoutTicks,
                           &metrics, &r.machineJson, &why);
    if (!ok) {
        // Unreachable after preparePoint unless a workload grows a
        // param check preparePoint lacks; handled the same as invalid.
        r.status = "invalid";
        r.error = why;
        w.key("status").value(r.status);
        w.key("error").value(why);
        w.endObject();
        r.doc = w.str();
        return r;
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
