/**
 * @file
 * Direct-mapped, write-allocate snooping MOESI cache.
 *
 * Used both for the 256 KB processor cache and for the small CNI device
 * caches (16/512 blocks). The cache is a BusAgent (its duplicated snoop
 * tags are implicit — snoops are free of processor-port contention) and a
 * requester that issues misses through a TxnIssue port, which the node
 * fabric routes to the right bus (memory bus, or across the I/O bridge).
 *
 * Timing: hits cost `hitLatency` cycles (default 1); misses cost the bus
 * arbitration wait plus the Table 2 occupancy, plus a victim writeback
 * transaction when the displaced line is dirty.
 */

#ifndef CNI_MEM_CACHE_HPP
#define CNI_MEM_CACHE_HPP

#include <functional>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "mem/moesi.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace cni
{

/** Port through which a cache issues its bus transactions. */
using TxnIssue =
    std::function<void(const BusTxn &, std::function<void(SnoopResult)>)>;

class Cache : public BusAgent
{
  public:
    /**
     * @param eq        event queue
     * @param name      debug/stats name
     * @param numBlocks capacity in 64-byte blocks (direct mapped)
     * @param initiator who this cache belongs to (timing direction)
     */
    Cache(EventQueue &eq, std::string name, std::size_t numBlocks,
          Initiator initiator);

    /** Wire the miss path; must be set before first access. */
    void setIssuePort(TxnIssue issue) { issue_ = std::move(issue); }

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
    CoTask<void> load(Addr a);

    /** Coherent store touching a single block (write-allocate). */
    CoTask<void> store(Addr a);

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

    /** Set this cache's requester id for a bus (filled into issued txns). */
    void setRequesterId(int id) { requesterId_ = id; }

    void setHitLatency(Tick t) { hitLatency_ = t; }
    Tick hitLatency() const { return hitLatency_; }

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

    Line &lineFor(Addr a);
    const Line &lineFor(Addr a) const;
    std::size_t indexOf(Addr a) const;

    /** Hit test: valid state and matching tag. */
    bool hit(const Line &ln, Addr a) const;

    CoTask<SnoopResult> refill(Addr a, bool exclusive);
    ValueCompletion<SnoopResult> issueTxn(TxnKind kind, Addr a);

    EventQueue &eq_;
    std::string name_;
    Initiator initiator_;
    std::vector<Line> lines_;
    TxnIssue issue_;
    int requesterId_ = -1;
    Tick hitLatency_ = 1;
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
