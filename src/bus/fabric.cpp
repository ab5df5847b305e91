#include "bus/fabric.hpp"

#include "bus/address_map.hpp"
#include "mc/encode.hpp"
#include "sim/logging.hpp"

namespace cni
{

NodeFabric::NodeFabric(EventQueue &eq, const std::string &name,
                       NiPlacement p)
    : CoherenceDomain(p), eq_(eq),
      membus_(eq, name + ".membus", BusKind::MemoryBus),
      stats_(name + ".bridge"), cDownstream_(stats_, "downstream"),
      cUpstream_(stats_, "upstream"),
      cBridgeConflicts_(stats_, "bridge_conflicts")
{
    if (p == NiPlacement::IoBus) {
        iobus_ = std::make_unique<SnoopBus>(eq, name + ".iobus",
                                            BusKind::IoBus);
    } else if (p == NiPlacement::CacheBus) {
        cachebus_ = std::make_unique<SnoopBus>(eq, name + ".cachebus",
                                               BusKind::CacheBus);
    }
}

SnoopBus &
NodeFabric::niBus()
{
    switch (placement_) {
      case NiPlacement::CacheBus:
        return *cachebus_;
      case NiPlacement::IoBus:
        return *iobus_;
      case NiPlacement::MemoryBus:
        return membus_;
    }
    return membus_;
}

void
NodeFabric::mergeStats(StatSet &agg) const
{
    // The exact order Machine::aggregateStats used before the domain
    // API: memory bus, I/O bus, bridge — reports must not reshuffle.
    // The cache bus, when the NI sits there, carries its register
    // traffic.
    agg.merge(membus_.stats());
    if (iobus_)
        agg.merge(iobus_->stats());
    if (cachebus_)
        agg.merge(cachebus_->stats());
    agg.merge(stats_);
}

bool
NodeFabric::isPosted(TxnKind k)
{
    return k == TxnKind::UncachedWrite || k == TxnKind::Upgrade ||
           k == TxnKind::Writeback;
}

void
NodeFabric::procIssue(const BusTxn &txn, SnoopBus::Done done)
{
    if (isNiAddr(txn.addr)) {
        switch (placement_) {
          case NiPlacement::CacheBus:
            // The processor-local bus: point-to-point, 4-cycle accesses,
            // no coherence involvement of the rest of the node.
            cachebus_->transact(txn, std::move(done));
            return;
          case NiPlacement::IoBus:
            crossDownstream(txn, std::move(done));
            return;
          case NiPlacement::MemoryBus:
            break; // fall through to the memory bus
        }
    }
    membus_.transact(txn, std::move(done));
}

void
NodeFabric::deviceIssue(const BusTxn &txn, SnoopBus::Done done)
{
    cni_assert(placement_ != NiPlacement::CacheBus);
    if (placement_ == NiPlacement::MemoryBus) {
        membus_.transact(txn, std::move(done));
        return;
    }
    crossUpstream(txn, std::move(done));
}

void
NodeFabric::crossDownstream(BusTxn txn, SnoopBus::Done done)
{
    cDownstream_.incr();
    if (membus_.busy())
        cBridgeConflicts_.incr();

    if (isPosted(txn.kind)) {
        // Posted: the processor side completes after the memory-bus
        // occupancy; the bridge forwards onto the I/O bus asynchronously
        // (I/O-bus FIFO order preserves store ordering).
        membus_.transact(
            txn, [this, txn, done = std::move(done)](const SnoopResult &r) {
                BusTxn fwd = txn;
                fwd.forwarded = true;
                fwd.requesterId = -1; // the bridge
                iobus_->transact(fwd, nullptr);
                if (done)
                    done(r);
            });
        return;
    }

    // Blocking read: hold the memory bus across the entire I/O-bus
    // transaction ("the bridge ... blocks on reads").
    membus_.acquire(
        txn, [this, txn, done = std::move(done)](const SnoopResult &) {
            BusTxn fwd = txn;
            fwd.forwarded = true;
            fwd.requesterId = -1;
            iobus_->transact(
                fwd, [this, done = std::move(done)](const SnoopResult &io) {
                    membus_.release();
                    if (done)
                        done(io);
                });
        });
}

void
NodeFabric::crossUpstream(BusTxn txn, SnoopBus::Done done)
{
    cUpstream_.incr();
    if (membus_.busy())
        cBridgeConflicts_.incr();

    if (isPosted(txn.kind)) {
        // Device-side invalidations and writebacks are buffered by the
        // bridge. The memory-bus side executes first (so the processor
        // cache is snooped), then the I/O-bus occupancy tail is paid; the
        // device resumes after the full I/O-side cost.
        BusTxn up = txn;
        up.forwarded = true;
        up.requesterId = -1;
        membus_.transact(
            up, [this, txn, done = std::move(done)](const SnoopResult &r) {
                iobus_->transact(
                    txn, [done = std::move(done), r](const SnoopResult &) {
                        if (done)
                            done(r);
                    });
            });
        return;
    }

    // Blocking pull (device coherently reads a block whose valid copy may
    // be in the processor cache). Memory-bus-first acquisition keeps the
    // two-bus locking deadlock-free; the I/O-bus transaction's occupancy
    // covers the full Table 2 cost.
    BusTxn up = txn;
    up.forwarded = true;
    up.requesterId = -1;
    membus_.acquire(
        up, [this, txn, done = std::move(done)](const SnoopResult &mem) {
            iobus_->transact(
                txn,
                [this, mem, done = std::move(done)](const SnoopResult &io) {
                    membus_.release();
                    SnoopResult merged = io;
                    merged.cacheSupplied |= mem.cacheSupplied;
                    merged.sharedCopy |= mem.sharedCopy;
                    merged.homeFound |= mem.homeFound;
                    if (mem.cacheSupplied)
                        merged.data = mem.data;
                    if (done)
                        done(merged);
                });
        });
}

std::shared_ptr<const void>
NodeFabric::mcSnapshot() const
{
    // Non-null so the checker knows the backend supports snapshots;
    // the buses hold no state between transactions to save.
    return std::make_shared<int>(0);
}

void
NodeFabric::mcRestore(const std::shared_ptr<const void> &snap)
{
    cni_assert(snap != nullptr);
}

void
NodeFabric::mcEncode(McEncoder &enc) const
{
    // Snooping buses serialize atomically inside one transaction's event
    // cascade, so there is no inter-transaction protocol state to fold
    // into the fingerprint.
    (void)enc;
}

void
NodeFabric::mcEncodeWire(McEncoder &enc, const std::uint8_t *blob,
                         std::size_t len) const
{
    // Bus transactions carry no protocol-specific wire structure: fold
    // the raw bytes, exactly as the stateless default does.
    for (std::size_t i = 0; i < len; ++i)
        enc.u8(blob[i]);
}

bool
NodeFabric::mcQuiescent(std::string *why) const
{
    auto check = [why](const SnoopBus *bus) {
        if (bus == nullptr)
            return true;
        if (!bus->busy() && bus->queueDepth() == 0)
            return true;
        if (why != nullptr)
            *why = bus->name() + ": bus busy or requests queued";
        return false;
    };
    return check(&membus_) && check(iobus_.get()) &&
           check(cachebus_.get());
}

std::size_t
NodeFabric::mcParkDepth() const
{
    std::size_t depth = membus_.queueDepth();
    if (iobus_)
        depth = std::max(depth, iobus_->queueDepth());
    if (cachebus_)
        depth = std::max(depth, cachebus_->queueDepth());
    return depth;
}

} // namespace cni
