/**
 * @file
 * cnibench — the in-process half of the cni benchmark; run.py builds
 * and drives it. One invocation runs one workload's fixed batch over
 * and over until a host-time budget is spent, then prints one JSON
 * document on stdout: the digest of every operation's simulated
 * result, one timing record per batch and, for traced batches, the
 * layer counts read from Machine::aggregateStats(). Traced runs also
 * write their spans as Chrome trace-event JSON.
 *
 *   cnibench <workload> [--seed N] [--seconds S] [--trace 0|1]
 *            [--trace-out PATH] [--size full|tiny] [--all-variants]
 *            [--setup-only] [--spec JSON]...
 *
 * Workloads: macro, sharded-mesh, modelcheck, report-probe (the
 * in-process Machine::report() timing behind dirmesh-sweep's
 * core.report_s; it takes that workload's sweep grids as --spec) and
 * speed-probe (host-speed samples taken beside dirmesh-sweep's cnid).
 * --all-variants runs every seed-selectable input variant once, which
 * is how run.py --pin records expectations. --setup-only stops macro
 * and modelcheck after their setup samples, so that run.py can take
 * them in several processes. run.py owns the metric
 * arithmetic; this program only measures.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/apps.hpp"
#include "core/machine.hpp"
#include "mc/checker.hpp"
#include "ni/params.hpp"
#include "ni/registry.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"
#include "sweep/jsonin.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

using namespace cni;

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Host seconds since process start. */
double
hostNow()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/**
 * Host seconds this process has run on a CPU, all threads together.
 * macro, sharded-mesh and modelcheck time their single-threaded,
 * never-blocking simulation with it: on a core of its own that is the elapsed time,
 * and on a shared VM it leaves out the time the hypervisor gave to
 * other guests (steal), which moves elapsed times by a third between
 * runs of the same code.
 */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** splitmix64: the seed -> input-variant map. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

// --- host speed -------------------------------------------------------------

/**
 * A fixed computation that samples how fast the host runs this thread
 * at the moment, with the kinds of work a simulator does: a dependent
 * walk in random order around a ring, hash-table lookups, an in-order
 * walk of a tree, and a sort. It allocates nothing while it runs and
 * belongs to the benchmark, so no change to cni moves it; run.py
 * scales a process's host times by its samples (see
 * cnibench/README.md, "Host time").
 */
class SpeedProbe
{
  public:
    SpeedProbe() : next_(kSlots), keys_(kSorted), work_(kSorted)
    {
        // Sattolo's shuffle: a single cycle through every slot.
        for (std::uint32_t i = 0; i < kSlots; ++i)
            next_[i] = i;
        for (std::uint32_t i = kSlots - 1; i > 0; --i)
            std::swap(next_[i], next_[mix(i) % i]);
        for (std::uint64_t i = 0; i < kHashed; ++i)
            hash_[mix(i)] = i;
        for (std::uint64_t i = 0; i < kTree; ++i)
            tree_[mix(i + kHashed)] = i;
        for (std::size_t i = 0; i < kSorted; ++i)
            keys_[i] = mix(i + kHashed + kTree);
    }

    /** Seconds of one pass on the clock `now` (CPU time by default). */
    double
    sample(double (*now)() = cpuNow)
    {
        const double t0 = now();
        std::uint64_t h = 0;
        std::uint32_t at = 0;
        for (std::uint32_t i = 0; i < 4 * kSlots; ++i) {
            at = next_[at];
            h += at;
        }
        for (std::uint64_t i = 0; i < 2 * kHashed; ++i) {
            const auto it = hash_.find(mix(i % (kHashed + kHashed / 2)));
            if (it != hash_.end())
                h += it->second;
        }
        for (const auto &[k, v] : tree_)
            h ^= k + v;
        std::copy(keys_.begin(), keys_.end(), work_.begin());
        std::sort(work_.begin(), work_.end());
        sink_ = h + work_[kSorted / 2];
        return now() - t0;
    }

  private:
    static constexpr std::uint32_t kSlots = 1u << 16;
    static constexpr std::uint64_t kHashed = 20000;
    static constexpr std::uint64_t kTree = 10000;
    static constexpr std::size_t kSorted = 40000;
    std::vector<std::uint32_t> next_;
    std::unordered_map<std::uint64_t, std::uint64_t> hash_;
    std::map<std::uint64_t, std::uint64_t> tree_;
    std::vector<std::uint64_t> keys_, work_;
    volatile std::uint64_t sink_ = 0;
};

/**
 * The report minus its "kernel" section: scheduling bookkeeping that
 * kernel optimisations are meant to change. Everything else —
 * runtime, stats, net, coherence, config — is the simulated result.
 */
std::string
withoutKernel(std::string rep)
{
    const std::string tag = ",\"kernel\":{";
    const std::size_t at = rep.find(tag);
    if (at == std::string::npos)
        cni_fatal("report has no kernel section");
    int depth = 0;
    for (std::size_t i = at + tag.size() - 1; i < rep.size(); ++i) {
        if (rep[i] == '{') {
            ++depth;
        } else if (rep[i] == '}' && --depth == 0) {
            rep.erase(at, i + 1 - at);
            break;
        }
    }
    return rep;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool tiny = false;
    bool allVariants = false;
    bool setupOnly = false;
    std::vector<std::string> specs;
};

// --- tracing ----------------------------------------------------------------

struct Span
{
    std::string name;
    int parent = -1;
    int run = 0; //!< batch index
    int tid = 0;
    double h0 = 0, h1 = 0; //!< host seconds
    Tick s0 = 0, s1 = 0;   //!< simulated ticks
};

/** In-memory spans, written once at exit as Chrome trace-event JSON. */
class Tracer
{
  public:
    bool active = false; //!< record spans for the current batch

    int
    open(std::string name, int parent, int run, Tick s0 = 0)
    {
        if (!active)
            return -1;
        spans_.push_back({std::move(name), parent, run, 0, hostNow(), 0,
                          s0, 0});
        return int(spans_.size()) - 1;
    }

    void
    close(int id, Tick s1 = 0)
    {
        if (id < 0)
            return;
        spans_[std::size_t(id)].h1 = hostNow();
        spans_[std::size_t(id)].s1 = s1;
    }

    void add(Span s) { spans_.push_back(std::move(s)); }

    void
    write(const std::string &path) const
    {
        std::vector<double> childUs(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                childUs[std::size_t(s.parent)] += (s.h1 - s.h0) * 1e6;
        }
        JsonWriter w;
        w.beginObject();
        w.key("displayTimeUnit").value("ms");
        w.key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const double dur = (s.h1 - s.h0) * 1e6;
            w.beginObject();
            w.key("name").value(s.name);
            w.key("cat").value("cnibench");
            w.key("ph").value("X");
            w.key("pid").value(1);
            w.key("tid").value(s.tid);
            w.key("ts").value(s.h0 * 1e6);
            w.key("dur").value(dur);
            w.key("args").beginObject();
            w.key("span").value(static_cast<long long>(i));
            w.key("parent").value(s.parent);
            w.key("run").value(s.run);
            w.key("sim_start").value(static_cast<unsigned long long>(s.s0));
            w.key("sim_end").value(static_cast<unsigned long long>(s.s1));
            w.key("self_us").value(dur - childUs[i]);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::ofstream(path) << w.str() << "\n";
    }

  private:
    std::vector<Span> spans_;
};

// --- measurement records ----------------------------------------------------

/** Host timings of one pass over the workload's fixed batch. */
struct Batch
{
    bool traced = false;
    double wall = 0, setup = 0, run = 0, report = 0, teardown = 0;
    double simCycles = 0; //!< modelcheck: transitions (no sim clock)
    double states = 0;    //!< kernel events; modelcheck: visited states
    int ops = 0;
    std::vector<double> opLatency; //!< per operation, in plan order
    std::vector<double> opRun;     //!< host seconds in its run call
    /**
     * Per job: a macro job is one app's Figure 8 row (its runs on all
     * four NI configurations); elsewhere a job is one operation.
     */
    std::vector<double> jobLatency;
    std::map<std::string, double> appRun; //!< macro: per-app run seconds
};

struct Outcome
{
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures; //!< first few, for diagnosis
    struct Op
    {
        std::string digest;
        int runs = 0;
        int failedRuns = 0;    //!< runs already counted in `failed`
        Tick cycles = 0;       //!< simulated cycles
        Tick membusCycles = 0; //!< memory-bus occupied cycles
    };
    std::map<std::string, Op> ops;
    std::vector<Batch> batches;
    std::vector<double> setupSamples; //!< setup-only repetitions
    std::vector<double> speedSamples; //!< SpeedProbe walks, CPU seconds
    std::map<std::string, double> counts; //!< first traced batch
    bool countsTaken = false;

    /** Record one operation; a digest that changes between repeats fails. */
    void
    op(const std::string &id, const std::string &digest, bool ok,
       const std::string &why, Tick cycles = 0, Tick membusCycles = 0)
    {
        ++attempted;
        std::string err = ok ? "" : why;
        const auto [it, fresh] =
            ops.emplace(id, Op{digest, 0, 0, cycles, membusCycles});
        ++it->second.runs;
        if (!fresh && it->second.digest != digest)
            err = "digest differs between repeats";
        if (err.empty())
            return;
        ++failed;
        ++it->second.failedRuns;
        if (failures.size() < 20)
            failures.push_back(id + ": " + err);
    }

    bool wantCounts(const Batch &b) const { return b.traced && !countsTaken; }

    /** One SpeedProbe sample, taken between timed stretches. */
    void
    sampleSpeed()
    {
        static SpeedProbe probe;
        speedSamples.push_back(probe.sample());
    }
};

std::uint64_t
kernelEvents(Machine &m)
{
    const ParallelKernel *k = m.kernel();
    if (!k)
        return m.eq().executed();
    std::uint64_t sum = 0;
    for (int s = 0; s < k->numShards(); ++s)
        sum += k->shardExecuted(s);
    return sum;
}

/** Fold one finished machine's layer counts into `c`. */
void
addCounts(std::map<std::string, double> &c, Machine &m)
{
    const StatSet agg = m.aggregateStats();
    for (const auto &[k, v] : agg.counters())
        c["stats." + k] += double(v);
    for (const auto &[k, s] : agg.scalars()) {
        c["scalar." + k + ".sum"] += s.sum();
        c["scalar." + k + ".count"] += double(s.count());
    }
    c["runtime.membus_occupied_cycles"] += double(m.memBusOccupiedCycles());
    c["kernel.executed"] += double(kernelEvents(m));
    if (const ParallelKernel *k = m.kernel()) {
        c["kernel.windows"] += double(k->windows());
        c["kernel.barrier_posts"] += double(k->barrierPosts());
        double mx = 0, sum = 0;
        for (int s = 0; s < k->numShards(); ++s) {
            const double e = double(k->shardExecuted(s));
            mx = std::max(mx, e);
            sum += e;
            c["kernel.stalled_windows"] += double(k->shardStalledWindows(s));
        }
        c["kernel.sharded_machines"] += 1;
        if (sum > 0)
            c["kernel.shard_imbalance"] += mx / (sum / k->numShards());
    }
}

/** Setup-only repetitions for workloads whose setup is milliseconds. */
constexpr int kSetupRepeats = 25;
/** SpeedProbe samples after them, for a process that only sets up. */
constexpr int kSetupSpeedSamples = 10;

/**
 * Repeat `runBatch` until `a.seconds` of host time are spent (at least
 * once). Traced runs alternate untraced and traced batches so the
 * tracing overhead is measured against the same run.
 */
template <class F>
void
loopBatches(const Args &a, Outcome &out, Tracer &tr, F runBatch)
{
    const double start = hostNow();
    for (int i = 0;; ++i) {
        Batch b;
        b.traced = a.trace && i % 2 == 1;
        tr.active = b.traced;
        const int span = tr.open("batch", -1, i);
        const double t0 = hostNow();
        runBatch(b, i, span);
        b.wall = hostNow() - t0;
        tr.close(span);
        if (b.traced)
            out.countsTaken = true;
        out.batches.push_back(std::move(b));
        const bool enough = !a.trace || i >= 1;
        if (a.allVariants || (enough && hostNow() - start >= a.seconds))
            break;
    }
    tr.active = false;
}

// --- macro: Figure 8's five apps on four NI configurations ------------------

struct MacroCfg
{
    const char *ni;
    NiPlacement placement;
    const char *tag;
};

const MacroCfg kMacroCfgs[] = {
    {"NI2w", NiPlacement::MemoryBus, "NI2w/mem"},
    {"CNI4", NiPlacement::MemoryBus, "CNI4/mem"},
    {"CNI16Qm", NiPlacement::MemoryBus, "CNI16Qm/mem"},
    {"CNI512Q", NiPlacement::IoBus, "CNI512Q/io"},
};

/** Seed-selectable inputs per randomized app (variant 0 = paper's). */
constexpr int kAppVariants = 16;

AppResult
runApp(const std::string &app, Machine &m, int variant)
{
    if (app == "spsolve") {
        SpsolveParams p;
        p.seed += std::uint64_t(variant);
        return runSpsolve(m, p);
    }
    if (app == "em3d") {
        Em3dParams p;
        p.seed += std::uint64_t(variant);
        return runEm3d(m, p);
    }
    if (app == "gauss")
        return runGauss(m);
    if (app == "moldyn")
        return runMoldyn(m);
    return runAppbt(m);
}

void
runMacro(const Args &a, Outcome &out, Tracer &tr)
{
    const int nodes = a.tiny ? 4 : 16;
    const std::vector<std::string> apps =
        a.tiny ? std::vector<std::string>{"em3d", "spsolve"}
               : macrobenchmarkNames();
    const std::size_t cfgs = a.tiny ? 2 : std::size(kMacroCfgs);

    struct Op
    {
        std::string app;
        const MacroCfg *cfg;
        int variant; //!< -1: the app takes no seed
    };
    std::vector<Op> plan;
    for (const std::string &app : apps) {
        const bool seeded = app == "em3d" || app == "spsolve";
        for (std::size_t c = 0; c < cfgs; ++c) {
            if (!seeded) {
                plan.push_back({app, &kMacroCfgs[c], -1});
            } else if (a.allVariants) {
                for (int v = 0; v < kAppVariants; ++v)
                    plan.push_back({app, &kMacroCfgs[c], v});
            } else {
                const int v = int(mix(a.seed ^ fnv(app)) % kAppVariants);
                plan.push_back({app, &kMacroCfgs[c], v});
            }
        }
    }
    auto specOf = [&](const Op &op) {
        return Machine::describe()
            .nodes(nodes)
            .ni(op.cfg->ni)
            .placement(op.cfg->placement)
            .spec();
    };

    // Machine construction is cheap next to the runs; repeat it alone
    // so setup_s has enough samples for a steady median.
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        double setup = 0;
        for (const Op &op : plan) {
            const double t0 = cpuNow();
            auto m = std::make_unique<Machine>(specOf(op));
            setup += cpuNow() - t0;
        }
        out.setupSamples.push_back(setup);
    }
    for (int i = 0; i < kSetupSpeedSamples; ++i)
        out.sampleSpeed();
    if (a.setupOnly)
        return;

    loopBatches(a, out, tr, [&](Batch &b, int run, int batchSpan) {
        for (const Op &op : plan) {
            std::string id = "macro/" + op.app + "/" + op.cfg->tag + "/n" +
                             std::to_string(nodes);
            if (op.variant >= 0)
                id += "/v" + std::to_string(op.variant);
            const int opSpan = tr.open(op.app + " " + op.cfg->tag,
                                       batchSpan, run);
            const double t0 = cpuNow();
            int sp = tr.open("build", opSpan, run);
            auto m = std::make_unique<Machine>(specOf(op));
            tr.close(sp);
            const double t1 = cpuNow();
            sp = tr.open(op.app, opSpan, run, m->now());
            const AppResult r = runApp(op.app, *m, op.variant);
            tr.close(sp, m->now());
            const double t2 = cpuNow();
            sp = tr.open("report", opSpan, run, m->now());
            const std::string rep = m->report();
            tr.close(sp, m->now());
            const double t3 = cpuNow();
            const double events = double(kernelEvents(*m));
            if (out.wantCounts(b))
                addCounts(out.counts, *m);
            sp = tr.open("teardown", opSpan, run);
            m.reset();
            tr.close(sp);
            const double t4 = cpuNow();
            tr.close(opSpan, r.ticks);

            const std::string digest = hex16(fnv(
                withoutKernel(rep),
                fnv(id + "|" + std::to_string(r.ticks) + "|" +
                    std::to_string(r.checksum) + "|" +
                    std::to_string(r.userMsgs) + "|" +
                    std::to_string(r.memBusOccupied))));
            const bool done =
                rep.find("\"workload_done\":true") != std::string::npos;
            out.op(id, digest, done && r.ticks > 0, "workload not done",
                   r.ticks, r.memBusOccupied);

            b.setup += t1 - t0;
            b.run += t2 - t1;
            b.report += t3 - t2;
            b.teardown += t4 - t3;
            b.simCycles += double(r.ticks);
            b.states += events;
            b.appRun[op.app] += t2 - t1;
            b.opLatency.push_back(t4 - t0);
            b.opRun.push_back(t2 - t1);
            if (&op == &plan.front() || op.app != (&op - 1)->app)
                b.jobLatency.push_back(0);
            b.jobLatency.back() += t4 - t0;
            ++b.ops;
            out.sampleSpeed();
        }
    });
}

// --- sharded-mesh: half-grid streaming on the sharded kernel ----------------

constexpr std::uint32_t kStreamPort = 7;
constexpr int kPatternVariants = 4;

struct RecvState
{
    int got = 0;
    std::uint64_t seqSum = 0;
    int bad = 0;
};

struct NodeSpan
{
    bool poll = false;
    double h0 = 0, h1 = 0;
    Tick s0 = 0, s1 = 0;
};

std::uint64_t
streamTag(std::uint64_t salt, NodeId src, int seq)
{
    return mix(salt ^ (std::uint64_t(src) << 24) ^ std::uint64_t(seq));
}

CoTask<void>
streamNode(Machine &m, NodeId n, NodeId dst, int msgs, std::uint64_t salt,
           const RecvState *rx, std::vector<NodeSpan> *spans)
{
    for (int i = 0; i < msgs; ++i) {
        std::uint8_t buf[16];
        const std::uint32_t src = std::uint32_t(n), seq = std::uint32_t(i);
        const std::uint64_t tag = streamTag(salt, n, i);
        std::memcpy(buf, &src, 4);
        std::memcpy(buf + 4, &seq, 4);
        std::memcpy(buf + 8, &tag, 8);
        const double h0 = spans ? hostNow() : 0;
        const Tick s0 = m.eq(n).now();
        co_await m.endpoint(n).send(dst, kStreamPort, buf, sizeof buf);
        if (spans)
            spans->push_back({false, h0, hostNow(), s0, m.eq(n).now()});
    }
    const double h0 = spans ? hostNow() : 0;
    const Tick s0 = m.eq(n).now();
    co_await m.endpoint(n).pollUntil([rx, msgs] { return rx->got >= msgs; });
    if (spans)
        spans->push_back({true, h0, hostNow(), s0, m.eq(n).now()});
}

void
runSharded(const Args &a, Outcome &out, Tracer &tr)
{
    const int side = a.tiny ? 8 : 32;
    const int nodes = side * side;
    const int msgs = a.tiny ? 4 : 16;
    // One thread drives the sharded kernel: all 1024 shards, their
    // windows, barriers and outboxes, with no worker pool. On a shared
    // VM a pool's wake-ups at every window barrier take as long as the
    // host's load makes them, which swung the run time by half between
    // runs of the same code; one thread never waits, so its CPU time
    // measures the kernel's own work.
    const int threads = 1;

    std::vector<int> variants;
    if (a.allVariants) {
        for (int v = 0; v < kPatternVariants; ++v)
            variants.push_back(v);
    } else {
        variants.push_back(int(mix(a.seed ^ 0x5ead) % kPatternVariants));
    }

    loopBatches(a, out, tr, [&](Batch &b, int run, int batchSpan) {
        for (const int v : variants) {
            // Every node streams to the node half the grid away, nudged
            // by the variant; the pattern is a translation, so each node
            // receives from exactly one source.
            const int dx = v & 1, dy = v >> 1;
            auto dest = [&](NodeId n) {
                const int x = (n % side + side / 2 + dx) % side;
                const int y = (n / side + side / 2 + dy) % side;
                return NodeId(y * side + x);
            };
            const std::uint64_t salt = mix(std::uint64_t(v) + 1);
            const std::string id = "sharded-mesh/" + std::to_string(side) +
                                   "x" + std::to_string(side) + "/m" +
                                   std::to_string(msgs) + "/v" +
                                   std::to_string(v);
            const int opSpan = tr.open(id, batchSpan, run);

            const double t0 = cpuNow();
            int sp = tr.open("build", opSpan, run);
            auto m = std::make_unique<Machine>(Machine::describe()
                                                   .nodes(nodes)
                                                   .ni("CNI512Q")
                                                   .net("mesh")
                                                   .meshDims(side, side)
                                                   .threads(threads)
                                                   .spec());
            std::vector<RecvState> rx(static_cast<std::size_t>(nodes));
            std::vector<std::vector<NodeSpan>> spans(
                b.traced ? std::size_t(nodes) : 0);
            for (NodeId n = 0; n < nodes; ++n) {
                RecvState *r = &rx[std::size_t(n)];
                m->endpoint(n).onMessage(
                    kStreamPort,
                    [r, salt](const UserMsg &u) -> CoTask<void> {
                        std::uint32_t src = 0, seq = 0;
                        std::uint64_t tag = 0;
                        if (u.payload.size() == 16) {
                            std::memcpy(&src, u.payload.data(), 4);
                            std::memcpy(&seq, u.payload.data() + 4, 4);
                            std::memcpy(&tag, u.payload.data() + 8, 8);
                        }
                        if (u.payload.size() != 16 || NodeId(src) != u.src ||
                            tag != streamTag(salt, u.src, int(seq)))
                            ++r->bad;
                        ++r->got;
                        r->seqSum += seq;
                        co_return;
                    });
                m->spawn(n, streamNode(*m, n, dest(n), msgs, salt, r,
                                       b.traced ? &spans[std::size_t(n)]
                                                : nullptr));
            }
            tr.close(sp);
            const double t1 = cpuNow();
            sp = tr.open("run", opSpan, run, m->now());
            const Tick ticks = m->run();
            tr.close(sp, ticks);
            const double t2 = cpuNow();
            sp = tr.open("report", opSpan, run, ticks);
            const std::string rep = m->report();
            tr.close(sp, ticks);
            const double t3 = cpuNow();
            const double events = double(kernelEvents(*m));

            int wrong = 0;
            const std::uint64_t wantSum =
                std::uint64_t(msgs) * std::uint64_t(msgs - 1) / 2;
            for (const RecvState &r : rx)
                wrong += (r.got != msgs || r.seqSum != wantSum || r.bad);

            if (out.wantCounts(b)) {
                addCounts(out.counts, *m);
                for (NodeId n = 0; n < nodes; ++n) {
                    for (const NodeSpan &s : spans[std::size_t(n)]) {
                        const std::string k = s.poll ? "msg.poll" : "msg.send";
                        out.counts[k + "_cycles_sum"] += double(s.s1 - s.s0);
                        out.counts[k + "_count"] += 1;
                        tr.add({s.poll ? "pollUntil" : "send", opSpan, run,
                                1 + n, s.h0, s.h1, s.s0, s.s1});
                    }
                }
            }
            sp = tr.open("teardown", opSpan, run);
            m.reset();
            tr.close(sp);
            const double t4 = cpuNow();
            tr.close(opSpan, ticks);

            const std::string digest = hex16(fnv(
                withoutKernel(rep), fnv(id + "|" + std::to_string(ticks))));
            out.op(id, digest, wrong == 0,
                   std::to_string(wrong) + " nodes received a wrong stream");

            b.setup += t1 - t0;
            b.run += t2 - t1;
            b.report += t3 - t2;
            b.teardown += t4 - t3;
            b.simCycles += double(ticks);
            b.states += events;
            b.opLatency.push_back(t4 - t0);
            b.opRun.push_back(t2 - t1);
            b.jobLatency.push_back(t4 - t0);
            ++b.ops;
            out.sampleSpeed();
        }
    });
}

// --- modelcheck: exhaustive DFS on dragon, capped ---------------------------

void
runModelcheck(const Args &a, Outcome &out, Tracer &tr)
{
    McConfig cfg;
    cfg.backend = "dragon";
    cfg.nodes = 3;
    cfg.blocks = 2;
    // A short check (a fifth of a second) repeats a hundred times in a
    // run, so its fastest repeat dodges the slow spells of a shared host.
    cfg.maxStates = a.tiny ? 2000 : 5000;
    const std::string id = "modelcheck/dragon/3n2b/cap" +
                           std::to_string(cfg.maxStates);

    // Checker construction takes well under a millisecond: time it in
    // groups of ten so each setup sample is above timer noise.
    auto setupSample = [&] {
        const double t0 = cpuNow();
        for (int i = 0; i < 10; ++i)
            McChecker k(cfg);
        return (cpuNow() - t0) / 10;
    };
    for (int rep = 0; rep < kSetupRepeats; ++rep)
        out.setupSamples.push_back(setupSample());
    for (int i = 0; i < kSetupSpeedSamples; ++i)
        out.sampleSpeed();
    if (a.setupOnly)
        return;

    loopBatches(a, out, tr, [&](Batch &b, int run, int batchSpan) {
        const double t0 = cpuNow();
        int sp = tr.open("build", batchSpan, run);
        auto k = std::make_unique<McChecker>(cfg);
        tr.close(sp);
        const double t1 = cpuNow();
        sp = tr.open("check", batchSpan, run);
        const McResult r = k->check();
        tr.close(sp);
        const double t2 = cpuNow();
        sp = tr.open("teardown", batchSpan, run);
        k.reset();
        tr.close(sp);
        const double t3 = cpuNow();

        std::string summary = id + "|" + std::to_string(r.visited) + "|" +
                              std::to_string(r.transitions) + "|" +
                              std::to_string(r.terminals) + "|" +
                              std::to_string(r.maxParkSeen) + "|" +
                              std::to_string(r.symmetries) + "|" +
                              std::to_string(r.truncated);
        for (const std::string &v : r.violations)
            summary += "|" + v;
        out.op(id, hex16(fnv(summary)), r.clean() && r.visited > 0,
               r.clean() ? "no states visited" : r.violations.front());
        if (out.wantCounts(b)) {
            out.counts["mc.states"] += double(r.visited);
            out.counts["mc.transitions"] += double(r.transitions);
        }

        b.setup += t1 - t0;
        b.run += t2 - t1;
        b.teardown += t3 - t2;
        b.simCycles += double(r.transitions);
        b.states += double(r.visited);
        b.opLatency.push_back(t3 - t0);
        b.opRun.push_back(t2 - t1);
        b.jobLatency.push_back(t3 - t0);
        ++b.ops;
        out.sampleSpeed();
    });
}

// --- speed-probe: host speed beside dirmesh-sweep's cnid ------------------

/**
 * One SpeedProbe pass per line read from stdin, until end of input;
 * prints each pass's elapsed seconds. dirmesh-sweep's times are elapsed
 * times of cnid's workers, so its samples are too.
 */
void
runSpeedProbe()
{
    SpeedProbe probe;
    char line[64];
    while (std::fgets(line, sizeof line, stdin)) {
        std::printf("%.9f\n", probe.sample(hostNow));
        std::fflush(stdout);
    }
}

// --- report-probe: Machine::report() on dirmesh-sweep's points -----------

// The sweep runner's two workloads as src/sweep/runner.cpp (coverage)
// and src/core/microbench.cpp (roundtrip) run them, rebuilt here because
// runPoint keeps its machine private. The probe checks that the machine
// it times renders the very report runPoint rendered for the point.
constexpr Port kPingPort = 100;
constexpr Port kPongPort = 101;
constexpr Port kCoveragePort = 1;

CoTask<void>
coverageScan(Machine &m, NodeId n)
{
    for (int pass = 0; pass < sweep::kCoverageScanPasses; ++pass) {
        for (int i = 0; i < sweep::kCoverageWorkingBlocks; ++i) {
            co_await m.proc(n).write64(
                kMemBase + Addr(i) * kBlockBytes,
                (std::uint64_t(pass) << 32) | std::uint64_t(i));
        }
    }
}

CoTask<void>
coverageSender(Machine &m, NodeId n, const std::vector<std::uint8_t> &p)
{
    co_await m.proc(n).delay(sweep::kCoveragePhaseSplit + Tick(n) * 40);
    for (int i = 0; i < sweep::kCoverageMsgsPerSender; ++i) {
        co_await m.endpoint(n).send(0, kCoveragePort, p.data(), p.size());
        co_await m.proc(n).delay(200);
    }
}

CoTask<void>
coverageSink(Machine &m, const int *received, int expected)
{
    co_await m.proc(0).delay(sweep::kCoveragePhaseSplit);
    co_await m.endpoint(0).pollUntil(
        [=] { return *received >= expected; });
}

CoTask<void>
pingPong(Machine &m, const std::vector<std::uint8_t> &p, const int *pongs,
         int rounds)
{
    for (int r = 0; r < rounds; ++r) {
        co_await m.endpoint(0).send(1, kPingPort, p.data(), p.size());
        const int want = r + 1;
        co_await m.endpoint(0).pollUntil([=] { return *pongs >= want; });
    }
}

CoTask<void>
drainNode(Machine &m, NodeId n, const int *got, int count)
{
    co_await m.endpoint(n).pollUntil([got, count] { return *got >= count; });
}

/**
 * Run sweep point `p` with a `timeout`-tick budget through runPoint, as
 * cnid does, then once more on a machine of the probe's own, and time
 * report() on that machine. Returns the median seconds of five
 * report() calls; `*same` says whether its report equals runPoint's
 * byte for byte.
 */
double
probePoint(const sweep::SweepPoint &p, Tick timeout, bool *same)
{
    const sweep::PointResult want = sweep::runPoint(p, timeout);
    MachineBuilder b;
    sweep::ParamList wl;
    std::string why;
    if (!sweep::applyMachineParams(p.params, &b, &wl, &why) ||
        !b.valid(&why))
        cni_fatal("bad sweep point: %s", why.c_str());
    const MachineSpec spec = b.spec();
    auto param = [&wl](const char *name, const char *def) {
        return std::atoi(sweep::paramOr(wl, name, def).c_str());
    };

    Machine m(spec);
    std::vector<std::uint8_t> payload;
    int received = 0, pings = 0, pongs = 0;
    if (p.workload == "coverage") {
        const int senders =
            std::min(param("sharing", "1"), m.numNodes() - 1);
        payload.assign(sweep::kCoverageMsgBytes, 0x5a);
        m.endpoint(0).onMessage(
            kCoveragePort, [&received](const UserMsg &) -> CoTask<void> {
                ++received;
                co_return;
            });
        for (NodeId n = 0; n < m.numNodes(); ++n)
            m.spawn(n, coverageScan(m, n));
        for (NodeId n = 1; n <= senders; ++n)
            m.spawn(n, coverageSender(m, n, payload));
        m.spawn(0, coverageSink(m, &received,
                                senders * sweep::kCoverageMsgsPerSender));
    } else if (p.workload == "roundtrip") {
        // Cachable-queue NIs warm up until the largest queue has wrapped.
        int warmup = param("warmup", "4");
        for (NodeId n : {NodeId(0), NodeId(1)}) {
            const NiTraits *t =
                NiRegistry::instance().traits(spec.node(n).ni);
            if (t && t->queueBased)
                warmup = std::max(warmup, 512 / kBlocksPerSlot + 8);
        }
        const int rounds = warmup + param("rounds", "16");
        payload.assign(std::size_t(param("bytes", "64")), 0xab);
        Endpoint &e1 = m.endpoint(1);
        e1.onMessage(kPingPort,
                     [&pings, &e1](const UserMsg &u) -> CoTask<void> {
                         ++pings;
                         co_await e1.send(0, kPongPort, u.payload.data(),
                                          u.payload.size());
                     });
        m.endpoint(0).onMessage(
            kPongPort, [&pongs](const UserMsg &) -> CoTask<void> {
                ++pongs;
                co_return;
            });
        m.spawn(0, pingPong(m, payload, &pongs, rounds));
        m.spawn(1, drainNode(m, 1, &pings, rounds));
    } else {
        cni_fatal("report-probe has no driver for workload '%s'",
                  p.workload.c_str());
    }
    if (timeout)
        m.runUntil(timeout);
    else
        m.run();

    *same = m.report() == want.machineJson;
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
        const double t0 = hostNow();
        const std::string rep = m.report();
        t.push_back(hostNow() - t0);
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

/**
 * Probe every point of the given sweep grids (dirmesh-sweep's, at one
 * point seed). Prints each point's median report() seconds and the
 * labels of any point whose timed report was not the one cnid renders.
 */
void
runReportProbe(const Args &a)
{
    JsonWriter w;
    w.beginObject();
    std::vector<std::string> mismatched;
    w.key("report_s").beginArray();
    for (const std::string &text : a.specs) {
        sweep::JsonValue doc;
        sweep::SweepSpec spec;
        std::string why;
        if (!sweep::parseJson(text, &doc, &why) ||
            !sweep::SweepSpec::fromJson(doc, &spec, &why))
            cni_fatal("bad --spec: %s", why.c_str());
        for (const sweep::SweepPoint &p : spec.expand()) {
            bool same = false;
            w.value(probePoint(p, spec.timeoutTicks, &same));
            if (!same)
                mismatched.push_back(p.workload + " " + p.key);
        }
    }
    w.endArray();
    w.key("mismatched").beginArray();
    for (const std::string &m : mismatched)
        w.value(m);
    w.endArray();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

// --- output -----------------------------------------------------------------

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

void
printOutcome(const Args &a, const Outcome &out)
{
    JsonWriter w;
    w.beginObject();
    w.key("workload").value(a.workload);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("failures").beginArray();
    for (const std::string &f : out.failures)
        w.value(f);
    w.endArray();
    w.key("ops").beginObject();
    for (const auto &[id, op] : out.ops) {
        w.key(id).beginObject();
        w.key("digest").value(op.digest);
        w.key("runs").value(op.runs);
        w.key("failed_runs").value(op.failedRuns);
        w.key("cycles").value(static_cast<unsigned long long>(op.cycles));
        w.key("membus_cycles")
            .value(static_cast<unsigned long long>(op.membusCycles));
        w.endObject();
    }
    w.endObject();
    w.key("setup_samples").beginArray();
    for (double s : out.setupSamples)
        w.value(s);
    w.endArray();
    w.key("speed_samples").beginArray();
    for (double s : out.speedSamples)
        w.value(s);
    w.endArray();
    w.key("batches").beginArray();
    for (const Batch &b : out.batches) {
        w.beginObject();
        w.key("traced").value(b.traced);
        w.key("wall_s").value(b.wall);
        w.key("setup_s").value(b.setup);
        w.key("run_s").value(b.run);
        w.key("report_s").value(b.report);
        w.key("teardown_s").value(b.teardown);
        w.key("sim_cycles").value(b.simCycles);
        w.key("states").value(b.states);
        w.key("ops").value(b.ops);
        w.key("op_latency_s").beginArray();
        for (double l : b.opLatency)
            w.value(l);
        w.endArray();
        w.key("op_run_s").beginArray();
        for (double l : b.opRun)
            w.value(l);
        w.endArray();
        w.key("job_latency_s").beginArray();
        for (double l : b.jobLatency)
            w.value(l);
        w.endArray();
        w.key("app_run_s").beginObject();
        for (const auto &[app, s] : b.appRun)
            w.key(app).value(s);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("counts").beginObject();
    for (const auto &[k, v] : out.counts)
        w.key(k).value(v);
    w.endObject();
    w.key("peak_rss_mb").value(peakRssMb());
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        cni_fatal("usage: cnibench <workload> [--seed N] [--seconds S] "
                  "[--trace 0|1] [--trace-out PATH] [--size full|tiny] "
                  "[--all-variants] [--setup-only] [--spec JSON]...");
    Args a;
    a.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--all-variants") {
            a.allVariants = true;
            continue;
        }
        if (f == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            cni_fatal("%s needs an argument", f.c_str());
        const std::string v = argv[++i];
        if (f == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (f == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (f == "--trace")
            a.trace = v == "1";
        else if (f == "--trace-out")
            a.traceOut = v;
        else if (f == "--size")
            a.tiny = v == "tiny";
        else if (f == "--spec")
            a.specs.push_back(v);
        else
            cni_fatal("unknown flag %s", f.c_str());
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Args a = parseArgs(argc, argv);
    if (a.workload == "report-probe") {
        runReportProbe(a);
        return 0;
    }
    if (a.workload == "speed-probe") {
        runSpeedProbe();
        return 0;
    }
    Outcome out;
    Tracer tr;
    if (a.workload == "macro")
        runMacro(a, out, tr);
    else if (a.workload == "sharded-mesh")
        runSharded(a, out, tr);
    else if (a.workload == "modelcheck")
        runModelcheck(a, out, tr);
    else
        cni_fatal("unknown workload '%s'", a.workload.c_str());
    if (a.trace && !a.traceOut.empty())
        tr.write(a.traceOut);
    printOutcome(a, out);
    return 0;
}
