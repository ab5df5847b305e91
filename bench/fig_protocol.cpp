/**
 * @file
 * Protocol sweep: producer-consumer vs migratory sharing across the
 * directory-family coherence backends — the experiment that motivates
 * the update/invalidate hybrid.
 *
 * Two coherent agents on node 0 (the processor cache and the NI device
 * cache — the only sharing pair the machine's per-node address map
 * allows) contend for remote-homed blocks:
 *
 *  - producer-consumer: the writer keeps producing words the reader
 *    immediately consumes. Invalidation re-fetches the block on every
 *    hand-off (upgrade + full read miss per round); an update protocol
 *    pushes the word and the consumer's read stays a cache hit.
 *  - migratory: each agent in turn grabs the block and works on it
 *    privately (one read, then a burst of writes). Invalidation pays one
 *    ownership transfer per phase and the rest are silent hits; a pure
 *    update protocol pushes every write to the idle previous owner.
 *
 * "dragon" must win the first and lose the second; "directory" the
 * reverse; "hybrid" must track the winner on both (the idle sharer's
 * useless-update counter trips and the line falls back to invalidate
 * mode mid-phase).
 *
 * Per-run config+counters land in fig_protocol.report.json (--json).
 * --coherence restricts the sweep; --hybrid-threshold tunes the flip
 * point (default here: 1 — flip on the second unread update).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bus/address_map.hpp"
#include "coh/domain.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "net/network.hpp"
#include "sim/cli.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"
#include "sim/report.hpp"

using namespace cni;

namespace
{

/**
 * Two real caches sharing node 0's coherence domain over a 2x1 mesh,
 * with every backend built through the CoherenceRegistry — the
 * domain-level equivalent of the machine's proc-cache/NI-cache pair.
 */
struct ProtoRig
{
    EventQueue eq;
    NetParams params;
    std::unique_ptr<Interconnect> net;
    std::vector<std::unique_ptr<CoherenceDomain>> dom;
    MainMemory mem0{"node0.memory"}, mem1{"node1.memory"};
    Cache writer{eq, "writer", 64, Initiator::Processor};
    Cache reader{eq, "reader", 64, Initiator::Device};

    ProtoRig(const std::string &backend, int threshold)
    {
        params.topology = "mesh";
        params.meshX = 2;
        params.meshY = 1;
        net = NetRegistry::instance().make("mesh", eq, 2, params);
        DirParams dp;
        dp.updThreshold = threshold;
        auto &reg = CoherenceRegistry::instance();
        for (NodeId n = 0; n < 2; ++n) {
            dom.push_back(reg.make(
                backend, CohBuildContext{eq, n, 2, NiPlacement::MemoryBus,
                                         *net, "node" + std::to_string(n),
                                         dp}));
        }
        dom[0]->attachHome(&mem0);
        dom[1]->attachHome(&mem1);
        // The reader is a device-side cache: it issues as the NI does.
        writer.attach(*dom[0], dom[0]->attachCache(&writer));
        reader.attach(*dom[0], dom[0]->attachNi(&reader));
        // Both agents model compute contexts here, so — unlike the
        // machine, where only the processor cache adapts — the flip
        // point applies to both.
        const CoherenceTraits *tr = reg.traits(backend);
        if (tr != nullptr && tr->adaptiveUpdate) {
            writer.setUpdateThreshold(threshold);
            reader.setUpdateThreshold(threshold);
        }
    }

    Tick
    run(CoTask<void> task)
    {
        TaskGroup group(eq);
        group.spawn(std::move(task));
        eq.run();
        return eq.now();
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

// Remote-homed blocks (odd local index -> home node 1): the pattern's
// working set exercises the full fabric protocol on every transaction.
Addr
blockAt(int idx)
{
    return kMemBase + Addr(idx) * kBlockBytes;
}

struct RunResult
{
    Tick cycles = 0;
    std::uint64_t msgs = 0;
    std::uint64_t updates = 0;
    std::uint64_t useless = 0;
    std::uint64_t flips = 0;
};

RunResult
measure(ProtoRig &rig, CoTask<void> task)
{
    RunResult r;
    r.cycles = rig.run(std::move(task));
    r.msgs = rig.counter("protocol_msgs");
    r.updates = rig.counter("updates_sent");
    r.useless = rig.counter("useless_updates");
    r.flips = rig.counter("mode_flips");
    return r;
}

/**
 * Producer-consumer: `iters` rounds over two blocks; every produced
 * word is consumed before the next round (the tightest hand-off — the
 * best case for pushing updates, the worst for invalidation).
 */
CoTask<void>
producerConsumer(ProtoRig &r, int iters)
{
    for (int i = 0; i < iters; ++i) {
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
migratory(ProtoRig &r, int phases, int writesPerPhase, Tick compute)
{
    const Addr b = blockAt(1);
    for (int p = 0; p < phases; ++p) {
        Cache &active = (p % 2 == 0) ? r.writer : r.reader;
        co_await active.load(b);
        for (int w = 0; w < writesPerPhase; ++w) {
            co_await active.store(b);
            co_await DelayAwaiter(r.eq, compute);
        }
    }
}

void
record(const std::string &pattern, const std::string &backend,
       int threshold, const RunResult &r)
{
    JsonWriter w;
    w.beginObject()
        .key("pattern").value(pattern)
        .key("backend").value(backend)
        .key("hybrid_threshold").value(threshold)
        .key("cycles").value(std::uint64_t(r.cycles))
        .key("protocol_msgs").value(r.msgs)
        .key("updates_sent").value(r.updates)
        .key("useless_updates").value(r.useless)
        .key("mode_flips").value(r.flips)
        .endObject();
    report::global().add(pattern + "/" + backend, w.str());
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const cli::Options opts = cli::parse(
        argc, argv,
        "(protocol sweep; --coherence picks a single backend)");

    // Flip on the second unread update: migratory phases waste exactly
    // one pushed word before the idle sharer drops off.
    MachineBuilder flags = Machine::describe().hybridThreshold(1);
    const int threshold = opts.apply(flags).spec().dir.updThreshold;
    // The rig builds domains without a Machine: validate the flip point
    // as the machine would.
    std::string why;
    if (!Machine::describe()
             .net("mesh")
             .coherence("hybrid")
             .hybridThreshold(threshold)
             .valid(&why))
        cni_fatal("invalid flags: %s", why.c_str());
    const int pcIters = 256;
    const int migPhases = 16;
    const int migWrites = 1024;
    const Tick migCompute = 2;

    std::vector<std::string> backends;
    if (const std::string *coherence = opts.given("coherence"))
        backends = {*coherence};
    else
        backends = {"directory", "dragon", "hybrid"};

    std::printf("Sharing-pattern sweep: producer-consumer (%d rounds x 2 "
                "blocks) and migratory (%d phases x %d writes)\n\n",
                pcIters, migPhases, migWrites);
    std::printf("%18s%12s%12s%10s%10s%10s%8s\n", "pattern", "backend",
                "cycles", "msgs", "updates", "useless", "flips");
    for (const auto &backend : backends) {
        {
            ProtoRig rig(backend, threshold);
            const RunResult r =
                measure(rig, producerConsumer(rig, pcIters));
            record("producer-consumer", backend, threshold, r);
            std::printf("%18s%12s%12llu%10llu%10llu%10llu%8llu\n",
                        "producer-consumer", backend.c_str(),
                        static_cast<unsigned long long>(r.cycles),
                        static_cast<unsigned long long>(r.msgs),
                        static_cast<unsigned long long>(r.updates),
                        static_cast<unsigned long long>(r.useless),
                        static_cast<unsigned long long>(r.flips));
        }
        {
            ProtoRig rig(backend, threshold);
            const RunResult r = measure(
                rig, migratory(rig, migPhases, migWrites, migCompute));
            record("migratory", backend, threshold, r);
            std::printf("%18s%12s%12llu%10llu%10llu%10llu%8llu\n",
                        "migratory", backend.c_str(),
                        static_cast<unsigned long long>(r.cycles),
                        static_cast<unsigned long long>(r.msgs),
                        static_cast<unsigned long long>(r.updates),
                        static_cast<unsigned long long>(r.useless),
                        static_cast<unsigned long long>(r.flips));
        }
    }
    opts.emitReports();
    return 0;
}
