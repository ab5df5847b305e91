/**
 * @file
 * Per-node bus fabric: memory bus, optional coherent I/O bus with bridge,
 * optional cache bus, and the routing rules between them. This is the
 * "snoop" CoherenceDomain backend (and the default): coherence is kept by
 * bus broadcast, every attached agent snoops every transaction.
 *
 * The I/O bridge model follows Section 4.1 of the paper:
 *  - reads that cross the bridge BLOCK: they hold the memory bus for the
 *    whole I/O-bus transaction (whose Table 2 occupancy already includes
 *    the memory-bus cycles);
 *  - writes and invalidations that cross are BUFFERED (posted): the
 *    issuing side completes after its own bus's occupancy and the bridge
 *    forwards the transaction to the other bus asynchronously, in FIFO
 *    order;
 *  - simultaneous initiation from both sides serializes through the
 *    memory-bus-first acquisition order (this subsumes the paper's
 *    NACK-and-retry rule: the same transaction wins, the loser retries
 *    next; we count these conflicts in `bridge_conflicts`).
 */

#ifndef CNI_BUS_FABRIC_HPP
#define CNI_BUS_FABRIC_HPP

#include <memory>
#include <string>

#include "bus/bus.hpp"
#include "coh/domain.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace cni
{

class NodeFabric : public CoherenceDomain
{
  public:
    NodeFabric(EventQueue &eq, const std::string &name, NiPlacement p);

    SnoopBus &membus() { return membus_; }
    SnoopBus *iobus() { return iobus_.get(); }
    SnoopBus *cachebus() { return cachebus_.get(); }

    /** The bus the NI device attaches to. */
    SnoopBus &niBus();

    // CoherenceDomain -------------------------------------------------------
    int attachCache(BusAgent *agent) override
    {
        return membus_.attach(agent);
    }

    int attachHome(BusAgent *agent) override
    {
        return membus_.attach(agent);
    }

    int attachNi(BusAgent *agent) override { return niBus().attach(agent); }

    /**
     * The cache bus or the memory bus; none with the NI on the I/O bus,
     * where a register read holds both buses across the bridge.
     */
    SnoopBus *
    niRegisterBus() override
    {
        return placement_ == NiPlacement::IoBus ? nullptr : &niBus();
    }

    /**
     * Issue a processor-initiated transaction. Routes to the cache bus
     * (NI-on-cache-bus placements), across the bridge (NI on the I/O
     * bus), or onto the memory bus. `done` runs when the requester may
     * proceed (posted writes complete after the near-side occupancy).
     */
    void procIssue(const BusTxn &txn, Done done) override;

    /**
     * Issue an NI-device-initiated transaction (coherent pulls, upgrades,
     * writebacks). With the NI on the I/O bus these cross the bridge
     * upstream so the processor cache can be snooped.
     */
    void deviceIssue(const BusTxn &txn, Done done) override;

    Tick memBusOccupiedCycles() const override
    {
        return membus_.occupiedCycles();
    }

    void mergeStats(StatSet &agg) const override;

    // Model-checking seam: a snooping bus serializes atomically inside
    // the event cascade of one transaction, so between transactions its
    // protocol-visible state is empty — the seam reports idleness and a
    // trivial snapshot.
    std::shared_ptr<const void> mcSnapshot() const override;
    void mcRestore(const std::shared_ptr<const void> &snap) override;
    void mcEncode(McEncoder &enc) const override;
    void mcEncodeWire(McEncoder &enc, const std::uint8_t *blob,
                      std::size_t len) const override;
    bool mcQuiescent(std::string *why) const override;
    std::size_t mcParkDepth() const override;

    StatSet &stats() { return stats_; }

  private:
    void crossDownstream(BusTxn txn, SnoopBus::Done done);
    void crossUpstream(BusTxn txn, SnoopBus::Done done);
    static bool isPosted(TxnKind k);

    EventQueue &eq_;
    SnoopBus membus_;
    std::unique_ptr<SnoopBus> iobus_;
    std::unique_ptr<SnoopBus> cachebus_;
    StatSet stats_;
    StatSet::Counter cDownstream_;
    StatSet::Counter cUpstream_;
    StatSet::Counter cBridgeConflicts_;
};

} // namespace cni

#endif // CNI_BUS_FABRIC_HPP
