/**
 * @file
 * Direct-mapped, write-allocate snooping MOESI cache.
 *
 * Used both for the 256 KB processor cache and for the small CNI device
 * caches (16/512 blocks). The cache is a BusAgent (its duplicated snoop
 * tags are implicit — snoops are free of processor-port contention) and a
 * requester that issues misses through its node's CoherenceDomain, which
 * routes them to the right bus (memory bus, or across the I/O bridge) or
 * home directory.
 *
 * Timing: hits cost kCacheHitCycles; misses cost the bus arbitration wait
 * plus the Table 2 occupancy, plus a victim writeback transaction when
 * the displaced line is dirty.
 */

#ifndef CNI_MEM_CACHE_HPP
#define CNI_MEM_CACHE_HPP

#include <coroutine>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "coh/domain.hpp"
#include "mem/moesi.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace cni
{

/** Cycles one cache hit takes (Section 4.1: one per 8-byte word). */
inline constexpr Tick kCacheHitCycles = 1;

class Cache : public BusAgent
{
  public:
    /**
     * Awaitable returned by load() and store(). A hit is counted in
     * await_ready and the caller's kCacheHitCycles resume is scheduled
     * directly: no coroutine starts. Anything else (a miss, a store to
     * a read-only copy) runs the slow-path coroutine, which resumes the
     * caller when it completes.
     */
    class Access
    {
      public:
        Access(Cache &c, Addr a, bool isStore)
            : c_(c), a_(a), store_(isStore)
        {
        }

        bool
        await_ready()
        {
            hit_ = c_.tryHit(a_, store_);
            return false;
        }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> h)
        {
            if (hit_) {
                c_.eq_.scheduleIn(kCacheHitCycles, [h] { h.resume(); });
                return std::noop_coroutine();
            }
            slow_ = store_ ? c_.storeSlow(a_) : c_.loadSlow(a_);
            return std::move(slow_).operator co_await().await_suspend(h);
        }

        void
        await_resume()
        {
            if (slow_.valid())
                std::move(slow_).operator co_await().await_resume();
        }

      private:
        Cache &c_;
        Addr a_;
        bool store_;
        bool hit_ = false;
        CoTask<void> slow_;
    };

    /**
     * @param eq        event queue
     * @param name      debug/stats name
     * @param numBlocks capacity in 64-byte blocks (direct mapped)
     * @param initiator who this cache belongs to (timing direction)
     */
    Cache(EventQueue &eq, std::string name, std::size_t numBlocks,
          Initiator initiator);

    /**
     * Wire the miss path: transactions go to `coh` from this cache's
     * side (its initiator) under `requesterId`, the id `coh` assigned
     * when the cache attached. Must be called before the first miss.
     */
    void
    attach(CoherenceDomain &coh, int requesterId)
    {
        coh_ = &coh;
        requesterId_ = requesterId;
    }

    /** Enable data snarfing (Section 5.1.2). */
    void setSnarfing(bool on) { snarfing_ = on; }

    /**
     * Adaptive update/invalidate flip point (the "hybrid" backend's
     * --hybrid-threshold). Each line tracks consecutive TxnKind::Update
     * pushes absorbed without an intervening read; once `t` of them
     * piled up, the next update makes the line self-invalidate instead
     * of absorbing (SnoopReply::invalidatedOnUpdate), flipping it to
     * invalidate mode for this cache. 0 (default) never flips — the
     * pure-update "dragon" behaviour. Irrelevant under invalidation
     * backends, which never send Update transactions.
     */
    void setUpdateThreshold(int t) { updateThreshold_ = t; }

    /**
     * On snooped reads of dirty lines, pass ownership to the requester
     * (supplier downgrades to Shared, requester installs Owned) instead
     * of keeping it. A cache that stages transient data it will never
     * reuse — the CNI16Qm device cache over its memory-homed queue —
     * avoids writing back every consumed block this way; writebacks then
     * occur only when *unread* blocks overflow, matching Section 5.1.2.
     */
    void setTransferOwnership(bool on) { transferOwnership_ = on; }

    /** Coherent load touching a single block. Suspends on a miss. */
    Access load(Addr a) { return Access(*this, a, false); }

    /** Coherent store touching a single block (write-allocate). */
    Access store(Addr a) { return Access(*this, a, true); }

    /**
     * Ensure the block is present with (at least) read permission without
     * charging the hit latency — used by devices that move whole blocks.
     */
    CoTask<void> fetchBlock(Addr a, bool exclusive);

    /**
     * Explicitly write back and invalidate the line holding `a` if dirty
     * (device cache overflow path for CNI16Qm). No-op when clean/absent.
     */
    CoTask<void> flushBlock(Addr a);

    /**
     * Claim write ownership of a block that will be *fully overwritten*:
     * an address-only invalidation suffices (no data fetch), like an MBus
     * coherent-invalidate. Displaced dirty victims are written back first
     * — this is the automatic overflow path of CNI16Qm. With
     * `deferWriteback` the victim writeback is posted through a writeback
     * buffer (issued to the bus without stalling the claim), taking the
     * flush off the claimer's critical path.
     */
    CoTask<void> claimBlock(Addr a, bool deferWriteback = false);

    /** Drop a block without writeback (user-level invalidate). */
    void invalidateBlock(Addr a);

    /**
     * Install a line in a given state without bus traffic — reset-time
     * initialization (a device owns its home storage at power-on).
     */
    void
    primeLine(Addr a, Moesi state)
    {
        Line &ln = lineFor(a);
        ln.tag = blockAlign(a);
        ln.tagValid = true;
        ln.state = state;
        ln.unreadUpdates = 0;
    }

    /**
     * Count `n` load hits on the resident line holding `a` without
     * running them: what n load(a) calls that hit would have recorded
     * (idle-poll fast-forward).
     */
    void
    chargeLoadHits(Addr a, std::uint64_t n)
    {
        Line &ln = lineFor(a);
        cni_assert(hit(ln, a));
        cLoadHits_.incr(n);
        ln.unreadUpdates = 0;
    }

    /** Current state of the line that would hold `a` (test/debug). */
    Moesi stateOf(Addr a) const;

    /** True if the line holding `a` has a valid copy of `a`'s block. */
    bool contains(Addr a) const;

    /** Number of blocks. */
    std::size_t numBlocks() const { return lines_.size(); }

    // BusAgent interface -------------------------------------------------
    SnoopReply onBusTxn(const BusTxn &txn) override;
    const std::string &agentName() const override { return name_; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

  private:
    struct Line
    {
        Addr tag = 0; //!< block-aligned address held (or last held)
        bool tagValid = false;
        Moesi state = Moesi::Invalid;
        /**
         * Consecutive updates absorbed without a read (saturating).
         * Only update backends ever bump it; reads and fresh installs
         * reset it (see setUpdateThreshold).
         */
        std::uint8_t unreadUpdates = 0;
    };

    std::size_t
    indexOf(Addr a) const
    {
        return (blockAlign(a) / kBlockBytes) % lines_.size();
    }

    Line &lineFor(Addr a) { return lines_[indexOf(a)]; }
    const Line &lineFor(Addr a) const { return lines_[indexOf(a)]; }

    /** Hit test: valid state and matching tag. */
    bool
    hit(const Line &ln, Addr a) const
    {
        return ln.tagValid && isValid(ln.state) && ln.tag == blockAlign(a);
    }

    /**
     * The hit path of load/store: on a hit (a writable one for a
     * store) count it, apply its state change and return true.
     */
    bool
    tryHit(Addr a, bool isStore)
    {
        Line &ln = lineFor(a);
        if (!hit(ln, a))
            return false;
        if (isStore) {
            if (!isWritable(ln.state))
                return false;
            cStoreHits_.incr();
            ln.state = Moesi::Modified; // E -> M silently
        } else {
            cLoadHits_.incr();
            ln.unreadUpdates = 0; // this update round was useful
        }
        return true;
    }

    CoTask<void> loadSlow(Addr a);
    CoTask<void> storeSlow(Addr a);
    CoTask<SnoopResult> refill(Addr a, bool exclusive);
    BusTxn txnFor(TxnKind kind, Addr a) const;
    TxnAwaiter issueTxn(TxnKind kind, Addr a);

    EventQueue &eq_;
    std::string name_;
    Initiator initiator_;
    std::vector<Line> lines_;
    CoherenceDomain *coh_ = nullptr;
    int requesterId_ = -1;
    bool snarfing_ = false;
    bool transferOwnership_ = false;
    int updateThreshold_ = 0; //!< 0 = never self-invalidate on update
    StatSet stats_;

    // Pre-bound per-access counters (sim/stats.hpp Counter contract).
    StatSet::Counter cLoadHits_;
    StatSet::Counter cLoadMisses_;
    StatSet::Counter cStoreHits_;
    StatSet::Counter cStoreUpgrades_;
    StatSet::Counter cStoreUpgradeFills_;
    StatSet::Counter cStoreUpgradeRaces_;
    StatSet::Counter cStoreMisses_;
    StatSet::Counter cStoreRefillRaces_;
    StatSet::Counter cWritebacks_;
    StatSet::Counter cClaims_;
    StatSet::Counter cFlushWritebacks_;
    StatSet::Counter cSnoopSupplies_;
    StatSet::Counter cSnoopInvalidations_;
    StatSet::Counter cSnarfs_;
};

} // namespace cni

#endif // CNI_MEM_CACHE_HPP
