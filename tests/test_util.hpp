/**
 * @file
 * Shared test scaffolding: a miniature node rig (bus + memory + caches),
 * a fixed-latency stand-in coherence domain, and a helper to run
 * coroutines to completion inside tests.
 */

#ifndef CNI_TESTS_TEST_UTIL_HPP
#define CNI_TESTS_TEST_UTIL_HPP

#include <memory>
#include <vector>

#include "bus/bus.hpp"
#include "bus/fabric.hpp"
#include "coh/domain.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
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
