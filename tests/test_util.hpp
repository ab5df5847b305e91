/**
 * @file
 * Shared test scaffolding: a miniature node rig (bus + memory + caches),
 * a two-node directory rig with scripted agents, a fixed-latency
 * stand-in coherence domain, and a helper to run coroutines to
 * completion inside tests.
 */

#ifndef CNI_TESTS_TEST_UTIL_HPP
#define CNI_TESTS_TEST_UTIL_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/address_map.hpp"
#include "bus/bus.hpp"
#include "bus/fabric.hpp"
#include "coh/directory.hpp"
#include "coh/domain.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace cni::test
{

/** Run a coroutine to completion on a fresh event queue. */
inline Tick
runTask(EventQueue &eq, CoTask<void> task)
{
    TaskGroup group(eq);
    group.spawn(std::move(task));
    eq.run();
    return eq.now();
}

/**
 * Two caches and a main memory on one node's snooping memory bus —
 * enough to exercise every MOESI transition. The caches issue through
 * the NodeFabric exactly as a machine's processor cache does.
 */
struct TwoCacheRig
{
    EventQueue eq;
    NodeFabric fabric{eq, "node", NiPlacement::MemoryBus};
    MainMemory memory;
    Cache a{eq, "cacheA", 64, Initiator::Processor};
    Cache b{eq, "cacheB", 64, Initiator::Processor};

    TwoCacheRig()
    {
        fabric.attachHome(&memory);
        a.attach(fabric, fabric.attachCache(&a));
        b.attach(fabric, fabric.attachCache(&b));
    }

    Tick run(CoTask<void> task) { return runTask(eq, std::move(task)); }
};

/**
 * A caching agent that answers every probe with `reply` and records
 * each probe it sees, with the tick it saw it at.
 */
struct ScriptedAgent final : BusAgent
{
    std::string name = "scripted";
    EventQueue *eq = nullptr; //!< for probe timestamping
    SnoopReply reply;         //!< returned from every probe
    std::vector<BusTxn> seen; //!< probes applied to this agent
    std::vector<Tick> seenAt; //!< when each probe was applied

    SnoopReply
    onBusTxn(const BusTxn &txn) override
    {
        seen.push_back(txn);
        seenAt.push_back(eq ? eq->now() : 0);
        return reply;
    }

    const std::string &agentName() const override { return name; }
};

/**
 * Two `Fabric` nodes (DirectoryFabric or an update backend built on it)
 * over a 2x1 mesh, with scripted cache/NI/memory agents — the
 * direct-drive harness for exact protocol accounting.
 */
template <class Fabric> struct TwoNodeRig
{
    EventQueue eq;
    NetParams params;
    std::unique_ptr<Interconnect> net;
    std::vector<std::unique_ptr<Fabric>> fab;
    ScriptedAgent proc[2], dev[2], mem[2];

    explicit TwoNodeRig(const DirParams &dp = DirParams{})
    {
        params.topology = "mesh";
        params.meshX = 2;
        params.meshY = 1;
        net = NetRegistry::instance().make("mesh", eq, 2, params);
        for (NodeId n = 0; n < 2; ++n) {
            fab.push_back(std::make_unique<Fabric>(
                eq, n, 2, *net, "node" + std::to_string(n), dp));
            proc[n].eq = dev[n].eq = mem[n].eq = &eq;
            fab[n]->attachCache(&proc[n]);
            fab[n]->attachHome(&mem[n]);
            fab[n]->attachNi(&dev[n]);
        }
    }

    /**
     * Issue `kind` on `a` from node `n`'s cache, or its NI device; the
     * completion lands in `*out`.
     */
    void
    issue(NodeId n, TxnKind kind, Addr a, SnoopResult *out,
          bool device = false)
    {
        BusTxn t;
        t.kind = kind;
        t.addr = a;
        t.initiator = device ? Initiator::Device : Initiator::Processor;
        fab[n]->issue(t, [out](const SnoopResult &r) { *out = r; });
    }

    /** Issue-and-drain helper; returns the completion result. */
    SnoopResult
    run(NodeId n, TxnKind kind, Addr a, bool device = false)
    {
        SnoopResult out;
        issue(n, kind, a, &out, device);
        eq.run();
        return out;
    }

    std::uint64_t
    counter(const char *key) const
    {
        return fab[0]->stats().counter(key) + fab[1]->stats().counter(key);
    }
};

using DirRig = TwoNodeRig<DirectoryFabric>;

/**
 * Node 0's local block with local index `idx`; odd indexes interleave
 * to home node 1 on a two-node machine.
 */
inline Addr
blockAt(int idx)
{
    return kMemBase + Addr(idx) * kBlockBytes;
}

/**
 * A stand-in coherence domain with no agents: it completes every
 * transaction `latency` cycles after issue — or, at latency 0, inside
 * the issue call — with `result`, recording each transaction as it
 * completes.
 */
class FixedLatencyDomain : public CoherenceDomain
{
  public:
    FixedLatencyDomain(EventQueue &eq, Tick latency)
        : CoherenceDomain(NiPlacement::MemoryBus), eq_(eq),
          latency_(latency)
    {
    }

    const char *kind() const override { return "fixed-latency"; }
    int attachCache(BusAgent *) override { return 0; }
    int attachHome(BusAgent *) override { return 1; }
    int attachNi(BusAgent *) override { return 2; }
    void procIssue(const BusTxn &txn, Done done) override
    {
        complete(txn, std::move(done));
    }
    void deviceIssue(const BusTxn &txn, Done done) override
    {
        complete(txn, std::move(done));
    }
    Tick memBusOccupiedCycles() const override { return 0; }
    void mergeStats(StatSet &) const override {}

    SnoopResult result;             //!< what every completion delivers
    std::vector<BusTxn> completed;  //!< in completion order

  private:
    void
    complete(const BusTxn &txn, Done done)
    {
        if (latency_ == 0) {
            completed.push_back(txn);
            done(result);
            return;
        }
        eq_.scheduleIn(latency_, [this, txn, done = std::move(done)] {
            completed.push_back(txn);
            done(result);
        });
    }

    EventQueue &eq_;
    Tick latency_;
};

} // namespace cni::test

#endif // CNI_TESTS_TEST_UTIL_HPP
