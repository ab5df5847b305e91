#include "mem/cache.hpp"

#include "sim/logging.hpp"

namespace cni
{

Cache::Cache(EventQueue &eq, std::string name, std::size_t numBlocks,
             Initiator initiator)
    : eq_(eq), name_(std::move(name)), initiator_(initiator),
      lines_(numBlocks), stats_(name_), cLoadHits_(stats_, "load_hits"),
      cLoadMisses_(stats_, "load_misses"),
      cStoreHits_(stats_, "store_hits"),
      cStoreUpgrades_(stats_, "store_upgrades"),
      cStoreUpgradeFills_(stats_, "store_upgrade_fills"),
      cStoreUpgradeRaces_(stats_, "store_upgrade_races"),
      cStoreMisses_(stats_, "store_misses"),
      cStoreRefillRaces_(stats_, "store_refill_races"),
      cWritebacks_(stats_, "writebacks"), cClaims_(stats_, "claims"),
      cFlushWritebacks_(stats_, "flush_writebacks"),
      cSnoopSupplies_(stats_, "snoop_supplies"),
      cSnoopInvalidations_(stats_, "snoop_invalidations"),
      cSnarfs_(stats_, "snarfs")
{
    cni_assert(numBlocks > 0);
}

Moesi
Cache::stateOf(Addr a) const
{
    const Line &ln = lineFor(a);
    return (ln.tagValid && ln.tag == blockAlign(a)) ? ln.state
                                                    : Moesi::Invalid;
}

bool
Cache::contains(Addr a) const
{
    return hit(lineFor(a), a);
}

BusTxn
Cache::txnFor(TxnKind kind, Addr a) const
{
    cni_assert(coh_ != nullptr);
    BusTxn txn;
    txn.kind = kind;
    txn.addr = blockAlign(a);
    txn.initiator = initiator_;
    txn.requesterId = requesterId_;
    return txn;
}

TxnAwaiter
Cache::issueTxn(TxnKind kind, Addr a)
{
    return TxnAwaiter(*coh_, txnFor(kind, a));
}

CoTask<void>
Cache::loadSlow(Addr a)
{
    cni_assert(!hit(lineFor(a), a));
    cLoadMisses_.incr();
    co_await refill(a, false);
}

CoTask<void>
Cache::storeSlow(Addr a)
{
    // The upgrade path can race with a remote invalidation arriving while
    // we wait for the bus; retry until we end with write permission (a
    // retry may find a writable hit after all).
    for (;;) {
        if (tryHit(a, true)) {
            co_await delay(eq_, kCacheHitCycles);
            co_return;
        }
        Line &ln = lineFor(a);
        if (hit(ln, a)) {
            // Shared or Owned: address-only upgrade. Under an update
            // backend an Owned (Sm) writer lands here every store —
            // each write is its own update round by design.
            cStoreUpgrades_.incr();
            SnoopResult res = co_await issueTxn(TxnKind::Upgrade, a);
            Line &ln2 = lineFor(a);
            if (hit(ln2, a)) {
                // kSharersRemain grant: the update left live sharers, so
                // the writer installs Sm (Owned), not Modified. The
                // single upgrade round *is* the complete write.
                ln2.state =
                    res.sharersRemain ? Moesi::Owned : Moesi::Modified;
                ln2.unreadUpdates = 0;
                co_return;
            }
            if (res.upgradeFilled) {
                // Invalidated while the upgrade was in flight, but the
                // home converted it to a read-to-own and the completion
                // carried the block: install it, no retry round trip.
                cStoreUpgradeFills_.incr();
                ln2.tag = blockAlign(a);
                ln2.tagValid = true;
                ln2.state =
                    res.sharersRemain ? Moesi::Owned : Moesi::Modified;
                ln2.unreadUpdates = 0;
                co_return;
            }
            // Invalidated while arbitrating; fall through and retry.
            cStoreUpgradeRaces_.incr();
            continue;
        }
        cStoreMisses_.incr();
        SnoopResult res = co_await refill(a, true);
        Line &ln3 = lineFor(a);
        if (hit(ln3, a) &&
            (isWritable(ln3.state) ||
             (res.sharersRemain && ln3.state == Moesi::Owned))) {
            // Owned-after-exclusive-refill is the update-protocol success
            // state (Sm); forcing Modified would pretend the sharers the
            // grant told us about are gone.
            if (!res.sharersRemain)
                ln3.state = Moesi::Modified;
            ln3.unreadUpdates = 0;
            co_return;
        }
        // Extremely unlikely: lost the block between refill completion and
        // now (same tick). Retry.
        cStoreRefillRaces_.incr();
    }
}

CoTask<void>
Cache::fetchBlock(Addr a, bool exclusive)
{
    Line &ln = lineFor(a);
    if (hit(ln, a) && (!exclusive || isWritable(ln.state))) {
        if (exclusive)
            ln.state = Moesi::Modified;
        else
            ln.unreadUpdates = 0;
        co_return;
    }
    if (exclusive && hit(ln, a)) {
        cStoreUpgrades_.incr();
        SnoopResult res = co_await issueTxn(TxnKind::Upgrade, a);
        Line &ln2 = lineFor(a);
        if (hit(ln2, a)) {
            ln2.state = res.sharersRemain ? Moesi::Owned : Moesi::Modified;
            ln2.unreadUpdates = 0;
            co_return;
        }
        if (res.upgradeFilled) {
            cStoreUpgradeFills_.incr();
            ln2.tag = blockAlign(a);
            ln2.tagValid = true;
            ln2.state = res.sharersRemain ? Moesi::Owned : Moesi::Modified;
            ln2.unreadUpdates = 0;
            co_return;
        }
    }
    SnoopResult res = co_await refill(a, exclusive);
    if (exclusive && !res.sharersRemain) {
        // (With sharers remaining the refill already installed Owned/Sm.)
        Line &ln3 = lineFor(a);
        if (hit(ln3, a))
            ln3.state = Moesi::Modified;
    }
}

CoTask<SnoopResult>
Cache::refill(Addr a, bool exclusive)
{
    Line &ln = lineFor(a);
    // Victim writeback: dirty data must reach its home before the frame is
    // reused.
    if (ln.tagValid && isDirty(ln.state)) {
        cWritebacks_.incr();
        const Addr victim = ln.tag;
        ln.state = Moesi::Invalid;
        co_await issueTxn(TxnKind::Writeback, victim);
    }
    SnoopResult res = co_await issueTxn(
        exclusive ? TxnKind::ReadExclusive : TxnKind::ReadShared, a);
    Line &ln2 = lineFor(a);
    ln2.tag = blockAlign(a);
    ln2.tagValid = true;
    ln2.unreadUpdates = 0;
    if (exclusive) {
        // Update backends keep the sharers alive: the grant says so and
        // the writer installs Sm (Owned) instead of Modified.
        ln2.state = res.sharersRemain ? Moesi::Owned : Moesi::Modified;
    } else if (res.cacheSupplied && res.ownershipTransferred) {
        ln2.state = Moesi::Owned;
    } else if (res.cacheSupplied || res.sharedCopy) {
        ln2.state = Moesi::Shared;
    } else {
        ln2.state = Moesi::Exclusive;
    }
    co_return res;
}

CoTask<void>
Cache::claimBlock(Addr a, bool deferWriteback)
{
    Line &ln = lineFor(a);
    if (hit(ln, a) && isWritable(ln.state)) {
        ln.state = Moesi::Modified;
        co_return;
    }
    // Displace a dirty victim (different block in the same frame).
    if (ln.tagValid && ln.tag != blockAlign(a) && isDirty(ln.state)) {
        cWritebacks_.incr();
        const Addr victim = ln.tag;
        ln.state = Moesi::Invalid;
        if (deferWriteback) {
            // Writeback buffer: the bus transaction is posted and drains
            // in FIFO order; the claim proceeds immediately.
            coh_->issue(txnFor(TxnKind::Writeback, victim),
                        [](const SnoopResult &) {});
        } else {
            co_await issueTxn(TxnKind::Writeback, victim);
        }
    }
    cClaims_.incr();
    SnoopResult res = co_await issueTxn(TxnKind::Upgrade, a);
    Line &ln2 = lineFor(a);
    ln2.tag = blockAlign(a);
    ln2.tagValid = true;
    ln2.state = res.sharersRemain ? Moesi::Owned : Moesi::Modified;
    ln2.unreadUpdates = 0;
}

CoTask<void>
Cache::flushBlock(Addr a)
{
    Line &ln = lineFor(a);
    if (!hit(ln, a))
        co_return;
    if (isDirty(ln.state)) {
        cFlushWritebacks_.incr();
        ln.state = Moesi::Invalid;
        co_await issueTxn(TxnKind::Writeback, blockAlign(a));
    } else {
        ln.state = Moesi::Invalid;
    }
}

void
Cache::invalidateBlock(Addr a)
{
    Line &ln = lineFor(a);
    if (ln.tagValid && ln.tag == blockAlign(a))
        ln.state = Moesi::Invalid;
}

SnoopReply
Cache::onBusTxn(const BusTxn &txn)
{
    SnoopReply reply;
    const Addr blk = blockAlign(txn.addr);

    switch (txn.kind) {
      case TxnKind::UncachedRead:
      case TxnKind::UncachedWrite:
        return reply; // register space: not ours

      case TxnKind::ReadShared: {
        Line &ln = lineFor(blk);
        if (!hit(ln, blk))
            return reply;
        reply.hadCopy = true;
        switch (ln.state) {
          case Moesi::Modified:
          case Moesi::Owned:
            reply.supplied = true;
            cSnoopSupplies_.incr();
            if (transferOwnership_) {
                reply.transferOwnership = true;
                ln.state = Moesi::Shared;
            } else {
                ln.state = Moesi::Owned;
            }
            break;
          case Moesi::Exclusive:
            ln.state = Moesi::Shared;
            break;
          case Moesi::Shared:
            break;
          case Moesi::Invalid:
            break;
        }
        return reply;
      }

      case TxnKind::ReadExclusive: {
        Line &ln = lineFor(blk);
        if (!hit(ln, blk))
            return reply;
        reply.hadCopy = true;
        if (isDirty(ln.state)) {
            reply.supplied = true;
            cSnoopSupplies_.incr();
        }
        ln.state = Moesi::Invalid;
        cSnoopInvalidations_.incr();
        return reply;
      }

      case TxnKind::Upgrade: {
        Line &ln = lineFor(blk);
        if (!hit(ln, blk))
            return reply;
        // Requester holds a valid copy already; no data moves.
        reply.hadCopy = true;
        ln.state = Moesi::Invalid;
        cSnoopInvalidations_.incr();
        return reply;
      }

      case TxnKind::Update: {
        // Dragon/hybrid word update pushed by the home on behalf of a
        // writer. Invalidation backends never send these.
        Line &ln = lineFor(blk);
        if (!hit(ln, blk))
            return reply; // silently evicted: the home drops us
        if (updateThreshold_ > 0 && ln.unreadUpdates >= updateThreshold_) {
            // Hybrid flip: `updateThreshold_` consecutive updates went
            // unread, so stop absorbing — drop the copy and let the
            // writer take plain ownership. hadCopy stays false so the
            // home removes us from the sharer set.
            ln.state = Moesi::Invalid;
            ln.unreadUpdates = 0;
            reply.invalidatedOnUpdate = true;
            cSnoopInvalidations_.incr();
            return reply;
        }
        reply.hadCopy = true;
        if (isDirty(ln.state)) {
            // Sm/M holder: its pre-update block is the freshest copy, so
            // the ack supplies it (a write-missing requester's grant then
            // carries real data). The update demotes it to Sc.
            reply.supplied = true;
            cSnoopSupplies_.incr();
        }
        ln.state = Moesi::Shared; // Sc, value refreshed in place
        if (ln.unreadUpdates < 255)
            ++ln.unreadUpdates;
        return reply;
      }

      case TxnKind::Writeback: {
        Line &ln = lineFor(blk);
        if (snarfing_ && ln.tagValid && ln.tag == blk &&
            ln.state == Moesi::Invalid) {
            // Data snarfing: the frame is already allocated to this block
            // (tag match, invalid); grab the data off the bus.
            ln.state = Moesi::Shared;
            cSnarfs_.incr();
            SnoopReply r;
            r.hadCopy = true; // a copy now exists
            return r;
        }
        return reply;
      }
    }
    return reply;
}

} // namespace cni
