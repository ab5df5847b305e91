#include "bus/bus.hpp"

#include <array>

#include "sim/logging.hpp"

namespace cni
{

const char *
toString(BusKind k)
{
    switch (k) {
      case BusKind::CacheBus:
        return "cache-bus";
      case BusKind::MemoryBus:
        return "memory-bus";
      case BusKind::IoBus:
        return "io-bus";
    }
    return "?";
}

const char *
toString(TxnKind k)
{
    switch (k) {
      case TxnKind::UncachedRead:
        return "UncachedRead";
      case TxnKind::UncachedWrite:
        return "UncachedWrite";
      case TxnKind::ReadShared:
        return "ReadShared";
      case TxnKind::ReadExclusive:
        return "ReadExclusive";
      case TxnKind::Upgrade:
        return "Upgrade";
      case TxnKind::Writeback:
        return "Writeback";
      case TxnKind::Update:
        return "Update";
    }
    return "?";
}

namespace
{
/**
 * "txn_<kind>" counter keys in TxnKind order, built once per process:
 * stat handles borrow their keys.
 */
const std::array<std::string, 7> &
txnKindKeys()
{
    static const std::array<std::string, 7> keys = [] {
        std::array<std::string, 7> k;
        for (int i = 0; i < 7; ++i)
            k[i] = std::string("txn_") + toString(static_cast<TxnKind>(i));
        return k;
    }();
    return keys;
}
} // namespace

SnoopBus::SnoopBus(EventQueue &eq, std::string name, BusKind kind)
    : eq_(eq), name_(std::move(name)), kind_(kind),
      spec_(BusTimingSpec::forKind(kind)), stats_(name_),
      cTxns_(stats_, "txns"), cOccupancyCycles_(stats_, "occupancy_cycles")
{
    for (int k = 0; k < 7; ++k)
        cTxnKind_[k] = StatSet::Counter(stats_, txnKindKeys()[k].c_str());
}

int
SnoopBus::attach(BusAgent *agent)
{
    cni_assert(agent != nullptr);
    agents_.push_back(agent);
    return static_cast<int>(agents_.size()) - 1;
}

void
SnoopBus::transact(const BusTxn &txn, Done done)
{
    // Auto-release: compute occupancy at grant, hold for it, then complete
    // and free the bus in one step.
    Pending p;
    p.txn = txn;
    p.autoRelease = true;
    p.granted = std::move(done);
    queue_.push_back(std::move(p));
    if (!busy_)
        grantNext();
}

void
SnoopBus::acquire(const BusTxn &txn, Done granted)
{
    Pending p;
    p.txn = txn;
    p.autoRelease = false;
    p.granted = std::move(granted);
    queue_.push_back(std::move(p));
    if (!busy_)
        grantNext();
}

void
SnoopBus::release()
{
    cni_assert(busy_);
    busy_ = false;
    occupiedCycles_ += eq_.now() - heldSince_;
    if (!queue_.empty())
        grantNext();
}

void
SnoopBus::grantNext()
{
    cni_assert(!busy_);
    if (queue_.empty())
        return;
    Pending p = std::move(queue_.front());
    queue_.erase(queue_.begin());
    busy_ = true;
    heldSince_ = eq_.now();
    startTxn(std::move(p));
}

void
SnoopBus::startTxn(Pending p)
{
    cTxns_.incr();
    cTxnKind_[static_cast<int>(p.txn.kind)].incr();

    SnoopResult res = broadcast(p.txn);

    if (p.autoRelease) {
        const Tick occ = occupancyFor(p.txn, res);
        cOccupancyCycles_.incr(occ);
        // Hold for the occupancy, then complete the requester and free
        // the bus. The completion callback runs before the next grant so
        // the requester's state update is ordered ahead of later snoops.
        eq_.scheduleIn(occ, [this, res, done = std::move(p.granted)] {
            if (done)
                done(res);
            release();
        });
    } else {
        // Manual hold (bridge): the holder learns the snoop result now and
        // calls release() itself.
        if (p.granted)
            p.granted(res);
    }
}

SnoopResult
SnoopBus::broadcast(const BusTxn &txn)
{
    SnoopResult res;
    int suppliers = 0;
    for (int i = 0; i < static_cast<int>(agents_.size()); ++i) {
        if (i == txn.requesterId)
            continue;
        SnoopReply r = agents_[i]->onBusTxn(txn);
        if (r.hadCopy)
            res.sharedCopy = true;
        if (r.supplied) {
            ++suppliers;
            res.cacheSupplied = true;
            res.ownershipTransferred = r.transferOwnership;
            res.data = r.data;
        }
        if (r.isHome) {
            res.homeFound = true;
            if (!res.cacheSupplied &&
                (txn.kind == TxnKind::UncachedRead ||
                 txn.kind == TxnKind::ReadShared ||
                 txn.kind == TxnKind::ReadExclusive)) {
                res.data = r.data;
            }
        }
    }
    cni_assert(suppliers <= 1);
    return res;
}

void
SnoopBus::chargeUncachedReads(std::uint64_t n)
{
    const Tick occ = Tick(n) * spec_.uncachedRead;
    cTxns_.incr(n);
    cTxnKind_[static_cast<int>(TxnKind::UncachedRead)].incr(n);
    cOccupancyCycles_.incr(occ);
    occupiedCycles_ += occ;
}

Tick
SnoopBus::occupancyFor(const BusTxn &txn, const SnoopResult &res) const
{
    switch (txn.kind) {
      case TxnKind::UncachedRead:
        return spec_.uncachedRead;
      case TxnKind::UncachedWrite:
        return spec_.uncachedWrite;
      case TxnKind::Upgrade:
        return spec_.addressOnly;
      case TxnKind::Update:
        // Word update: address + one word, uncached-write-sized.
        return spec_.uncachedWrite;
      case TxnKind::Writeback:
        // Block transfer toward the home: direction follows the writer.
        return txn.initiator == Initiator::Processor ? spec_.blockFromProc
                                                     : spec_.blockFromMemory;
      case TxnKind::ReadShared:
      case TxnKind::ReadExclusive:
        if (!res.cacheSupplied && homeOf(txn.addr) == Home::Memory)
            return spec_.blockFromMemory;
        // Data moves toward whoever asked for it.
        return txn.initiator == Initiator::Processor ? spec_.blockToProc
                                                     : spec_.blockFromProc;
    }
    return 0;
}

} // namespace cni
