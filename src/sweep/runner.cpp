#include "sweep/runner.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/apps.hpp"
#include "bus/address_map.hpp"
#include "core/machine_params.hpp"
#include "core/microbench.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"
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
    long long threshold = 1; //!< protocol: the hybrid flip point
    std::string name;        //!< macro app, protocol pattern, occupancy op
};

/** A runner workload: its own parameters and the machine it runs on. */
struct Workload
{
    const char *name;
    std::vector<std::string> params;
    bool messages; //!< sends messages between nodes, so needs two
    /** The machine rows a point may set; every row when null. */
    bool (*takes)(const MachineParam &);
    /** The machine a rig fixes, set before the point's rows; or null. */
    void (*rig)(MachineBuilder &);
};

const std::vector<Workload> kWorkloads = {
    {"roundtrip", {"bytes", "rounds", "warmup"}, true, nullptr, nullptr},
    {"bandwidth", {"bytes", "messages", "warmup"}, true, nullptr, nullptr},
    {"coverage", {"sharing"}, false, nullptr, nullptr},
    {"macro", {"app"}, true, nullptr, nullptr},
    {"hotspot", {}, true, nullptr, nullptr},
    {"protocol", {"pattern", "hybrid-threshold"}, false,
     [](const MachineParam &p) { return p.scope == ParamScope::Coherence; },
     [](MachineBuilder &b) { b.nodes(2).net("mesh").meshDims(2, 1); }},
    {"occupancy", {"op"}, false,
     [](const MachineParam &p) {
         return p.scope != ParamScope::Node ||
                std::string_view(p.name) == "placement";
     },
     // A stub device stands in for the NI: validate as NI2w, which
     // every bus takes.
     [](MachineBuilder &b) { b.nodes(1).ni("NI2w"); }},
};

const std::vector<std::string> kPatterns = {"producer-consumer",
                                            "migratory"};

/** One Table 2 transaction, timed on an idle one-node rig. */
struct OccupancyOp
{
    const char *name;
    TxnKind kind;
    Addr addr;
    Initiator initiator;
    bool ownedByProc; //!< the processor side holds the block dirty
    bool onCacheBus;  //!< has a form with the NI on the cache bus
    bool onIoBus;     //!< ... on the I/O bus (every op has a memory-bus one)
};

const OccupancyOp kOccupancyOps[] = {
    {"uncached-load", TxnKind::UncachedRead, kDevRegBase,
     Initiator::Processor, false, true, true},
    {"uncached-store", TxnKind::UncachedWrite, kDevRegBase,
     Initiator::Processor, false, true, true},
    {"ni-to-cpu", TxnKind::ReadShared, kDevMemBase, Initiator::Processor,
     false, false, true},
    {"cpu-to-ni", TxnKind::ReadShared, kDevMemBase, Initiator::Device, true,
     false, true},
    {"memory-to-cache", TxnKind::ReadShared, kMemBase + 0x100,
     Initiator::Processor, false, false, false},
};

const OccupancyOp &
occupancyOp(const std::string &name)
{
    for (const OccupancyOp &op : kOccupancyOps) {
        if (name == op.name)
            return op;
    }
    cni_panic("unknown occupancy op '%s'", name.c_str());
}

const std::vector<std::string> &
occupancyOpNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const OccupancyOp &op : kOccupancyOps)
            v.emplace_back(op.name);
        return v;
    }();
    return names;
}

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

/** Workload parameter `name`, which must be one of `names`. */
bool
nameParam(const ParamList &wl, const char *name,
          const std::vector<std::string> &names, std::string *out,
          std::string *why)
{
    *out = paramOr(wl, name, "");
    if (std::find(names.begin(), names.end(), *out) != names.end())
        return true;
    if (why) {
        std::string want;
        for (const std::string &n : names)
            want += (want.empty() ? "" : ", ") + n;
        *why = std::string("parameter '") + name + "': got '" + *out +
               "', want one of " + want;
    }
    return false;
}

/** Parse `wl`, already checked against `workload`'s names, into `a`. */
bool
parseWorkload(const std::string &workload, const ParamList &wl,
              WorkloadArgs *a, std::string *why)
{
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
    if (workload == "macro")
        return nameParam(wl, "app", macrobenchmarkNames(), &a->name, why);
    if (workload == "protocol") {
        // The flip point parses and range-checks as the machine row does
        // but defaults to 1, flipping on the second unread update: a
        // migratory phase wastes exactly one pushed word before the idle
        // sharer drops off. Every backend gets it; only adaptive ones
        // read it.
        MachineBuilder flip;
        if (!nameParam(wl, "pattern", kPatterns, &a->name, why) ||
            !findMachineParam("hybrid-threshold")
                 ->apply(flip, paramOr(wl, "hybrid-threshold", "1"), why))
            return false;
        a->threshold = flip.spec().dir.updThreshold;
        return validHybridThreshold(a->threshold, why);
    }
    if (workload == "occupancy")
        return nameParam(wl, "op", occupancyOpNames(), &a->name, why);
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

/**
 * fig_protocol's rig: two real caches sharing node 0's coherence domain
 * over the 2x1 mesh, every backend built through the CoherenceRegistry
 * — the domain-level equivalent of the machine's proc-cache/NI-cache
 * pair. The reader is a device-side cache: it issues as the NI does.
 */
struct ProtoRig
{
    EventQueue eq;
    std::unique_ptr<Interconnect> net;
    std::vector<std::unique_ptr<CoherenceDomain>> dom;
    MainMemory mem0{"node0.memory"}, mem1{"node1.memory"};
    Cache writer{eq, "writer", 64, Initiator::Processor};
    Cache reader{eq, "reader", 64, Initiator::Device};

    ProtoRig(const MachineSpec &spec, int threshold)
    {
        net = NetRegistry::instance().make(spec.net.topology, eq, 2,
                                           spec.net);
        DirParams dp = spec.dir;
        dp.updThreshold = threshold;
        auto &reg = CoherenceRegistry::instance();
        for (NodeId n = 0; n < 2; ++n) {
            dom.push_back(reg.make(
                spec.coherence,
                CohBuildContext{eq, n, 2, NiPlacement::MemoryBus, *net,
                                "node" + std::to_string(n), dp}));
        }
        dom[0]->attachHome(&mem0);
        dom[1]->attachHome(&mem1);
        writer.attach(*dom[0], dom[0]->attachCache(&writer));
        reader.attach(*dom[0], dom[0]->attachNi(&reader));
        // Both agents model compute contexts here, so — unlike the
        // machine, where only the processor cache adapts — the flip
        // point applies to both.
        if (reg.traits(spec.coherence)->adaptiveUpdate) {
            writer.setUpdateThreshold(threshold);
            reader.setUpdateThreshold(threshold);
        }
    }

    std::uint64_t
    counter(const char *key) const
    {
        StatSet agg("agg");
        dom[0]->mergeStats(agg);
        dom[1]->mergeStats(agg);
        return agg.counter(key);
    }
};

/** Remote-homed block `idx` (odd local index -> home node 1). */
Addr
blockAt(int idx)
{
    return kMemBase + Addr(idx) * kBlockBytes;
}

/**
 * Producer-consumer: rounds over two blocks; every produced word is
 * consumed before the next round (the tightest hand-off — the best case
 * for pushing updates, the worst for invalidation).
 */
CoTask<void>
producerConsumer(ProtoRig &r)
{
    for (int i = 0; i < kProducerConsumerRounds; ++i) {
        for (int b = 0; b < 2; ++b)
            co_await r.writer.store(blockAt(2 * b + 1));
        for (int b = 0; b < 2; ++b)
            co_await r.reader.load(blockAt(2 * b + 1));
    }
}

/**
 * Migratory: the block migrates between the agents; each phase is one
 * read followed by a private write burst (with per-write compute). Only
 * the first write of a phase needs coherence work under invalidation —
 * a pure update protocol pushes all of them to the idle agent.
 */
CoTask<void>
migratory(ProtoRig &r)
{
    const Addr b = blockAt(1);
    for (int p = 0; p < kMigratoryPhases; ++p) {
        Cache &active = (p % 2 == 0) ? r.writer : r.reader;
        co_await active.load(b);
        for (int w = 0; w < kMigratoryWrites; ++w) {
            co_await active.store(b);
            co_await DelayAwaiter(r.eq, kMigratoryCompute);
        }
    }
}

void
runProtocol(const MachineSpec &spec, const WorkloadArgs &a,
            const MeasureOpts &opts, WorkloadMetrics *out)
{
    ProtoRig rig(spec, int(a.threshold));
    {
        TaskGroup group(rig.eq);
        group.spawn(a.name == "migratory" ? migratory(rig)
                                          : producerConsumer(rig));
        if (opts.timeoutTicks)
            rig.eq.runUntil(opts.timeoutTicks);
        else
            rig.eq.run();
        out->completed = group.done() && rig.eq.empty();
    }
    const char *const counters[] = {"protocol_msgs", "updates_sent",
                                    "useless_updates", "mode_flips"};
    out->values = {{"cycles", double(rig.eq.now())}};
    JsonWriter w;
    w.beginObject()
        .key("pattern").value(a.name)
        .key("backend").value(spec.coherence)
        .key("hybrid_threshold").value(a.threshold)
        .key("cycles").value(std::uint64_t(rig.eq.now()));
    for (const char *key : counters) {
        const std::uint64_t n = rig.counter(key);
        out->values.emplace_back(key, double(n));
        w.key(key).value(n);
    }
    w.endObject();
    if (opts.sink)
        opts.sink->add(a.name + "/" + spec.coherence, w.str());
}

/** Minimal home-for-everything NI stand-in. */
class StubDevice : public BusAgent
{
  public:
    SnoopReply
    onBusTxn(const BusTxn &txn) override
    {
        SnoopReply r;
        if (CoherenceDomain::isNiAddr(txn.addr))
            r.isHome = true;
        return r;
    }
    bool isHome(Addr a) const override
    {
        return CoherenceDomain::isNiAddr(a);
    }
    const std::string &agentName() const override { return name_; }

  private:
    std::string name_ = "stub";
};

/** Cache stand-in that owns one dirty block (so pulls are supplied). */
class OwnerAgent : public BusAgent
{
  public:
    SnoopReply
    onBusTxn(const BusTxn &txn) override
    {
        SnoopReply r;
        if (txn.addr == owned &&
            (txn.kind == TxnKind::ReadShared ||
             txn.kind == TxnKind::ReadExclusive)) {
            r.hadCopy = true;
            r.supplied = true;
        }
        return r;
    }
    const std::string &agentName() const override { return name_; }
    Addr owned = ~Addr{0};

  private:
    std::string name_ = "owner";
};

/** table2_occupancy's idle-system transaction, timed on one node. */
void
runOccupancy(const MachineSpec &spec, const OccupancyOp &op,
             WorkloadMetrics *out)
{
    EventQueue eq;
    auto net = NetRegistry::instance().make(spec.net.topology, eq, 1,
                                            spec.net);
    auto domain = CoherenceRegistry::instance().make(
        spec.coherence,
        CohBuildContext{eq, 0, 1, spec.placement, *net, "n", spec.dir});
    MainMemory mem;
    StubDevice dev;
    OwnerAgent owner;
    if (op.ownedByProc)
        owner.owned = op.addr;
    domain->attachHome(&mem);
    domain->attachCache(&owner);
    domain->attachNi(&dev);

    Tick start = 0;
    if (op.ownedByProc &&
        CoherenceRegistry::instance().traits(spec.coherence)->directory) {
        // A snooping bus discovers the dirty owner by broadcast; a
        // directory only knows owners that acquired through it. Acquire
        // the block first so the measured pull takes the real
        // owner-forward path, and time the measured transaction from
        // the post-warm-up clock.
        BusTxn own;
        own.kind = TxnKind::ReadExclusive;
        own.addr = op.addr;
        own.initiator = Initiator::Processor;
        domain->issue(own, [](const SnoopResult &) {});
        eq.run();
        start = eq.now();
    }

    Tick done = start;
    BusTxn t;
    t.kind = op.kind;
    t.addr = op.addr;
    t.initiator = op.initiator;
    domain->issue(t, [&](const SnoopResult &) { done = eq.now(); });
    eq.run();
    out->values = {{"cycles", double(done - start)}};
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
        const AppResult r = runMacrobenchmark(a.name, spec, p.seed, opts);
        out->completed = r.completed;
        out->values = {{"cycles", double(r.ticks)},
                       {"mem_bus_occupied", double(r.memBusOccupied)}};
    } else if (p.workload == "protocol") {
        runProtocol(spec, a, opts, out);
    } else if (p.workload == "occupancy") {
        runOccupancy(spec, occupancyOp(a.name), out);
    } else {
        runHotspot(spec, p.seed, opts, out);
    }
}

/** Would the workload run on `spec`, beyond MachineSpec::valid()? */
bool
workloadRunsOn(const std::string &workload, const WorkloadArgs &a,
               const MachineSpec &spec, std::string *why)
{
    if (workload == "macro" && a.name == "spsolve")
        return spsolveRunsOn(spec, why);
    if (workload != "occupancy")
        return true;
    const OccupancyOp &op = occupancyOp(a.name);
    if ((spec.placement == NiPlacement::CacheBus && !op.onCacheBus) ||
        (spec.placement == NiPlacement::IoBus && !op.onIoBus)) {
        if (why)
            *why = std::string("op '") + op.name + "' has no form on the " +
                   toString(spec.placement);
        return false;
    }
    return true;
}

/**
 * Shared front half of validatePoint/runPoint: the workload's rig and
 * machine params applied and validated, workload params split off and
 * parsed.
 */
bool
preparePoint(const SweepPoint &p, MachineBuilder *b, WorkloadArgs *a,
             std::string *why)
{
    const auto def = std::find_if(
        kWorkloads.begin(), kWorkloads.end(),
        [&](const Workload &w) { return w.name == p.workload; });
    if (def == kWorkloads.end()) {
        if (why) {
            std::string names;
            for (const Workload &w : kWorkloads)
                names += std::string(names.empty() ? "" : ", ") + w.name;
            *why = "unknown workload '" + p.workload + "' (try " + names +
                   ")";
        }
        return false;
    }
    if (def->rig)
        def->rig(*b);
    ParamList machine, wl;
    for (const auto &kv : p.params) {
        const MachineParam *row = findMachineParam(kv.first);
        const bool own = std::find(def->params.begin(), def->params.end(),
                                   kv.first) != def->params.end();
        if (own) {
            wl.push_back(kv);
        } else if (row && (!def->takes || def->takes(*row))) {
            machine.push_back(kv);
        } else {
            if (why)
                *why = "workload '" + p.workload +
                       "' does not take parameter '" + kv.first + "'";
            return false;
        }
    }
    if (!applyMachineParams(machine, b, &wl, why) ||
        !parseWorkload(p.workload, wl, a, why))
        return false;
    if (def->messages && b->spec().numNodes < 2) {
        if (why)
            *why = "workload '" + p.workload +
                   "' sends messages between nodes: nodes must be >= 2";
        return false;
    }
    return b->valid(why) && workloadRunsOn(p.workload, *a, b->spec(), why);
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
