/**
 * @file
 * Snooping split-free bus model.
 *
 * Both node buses support exactly one outstanding transaction (Section 4.1).
 * A transaction is: arbitrate (FIFO) -> grant -> snoop broadcast (all
 * attached agents update their coherence state and report whether they held
 * or will supply the block) -> occupy the bus for the Table 2 time ->
 * complete. Requesters either use transact() (occupancy computed from the
 * timing spec and released automatically) or acquire()/release() for
 * bridge-mediated transactions whose hold time is not known at grant time.
 */

#ifndef CNI_BUS_BUS_HPP
#define CNI_BUS_BUS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bus/address_map.hpp"
#include "bus/timing.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cni
{

/** Transaction classes visible on a bus. */
enum class TxnKind
{
    UncachedRead,  //!< 8-byte uncached load from a device register
    UncachedWrite, //!< 8-byte uncached store to a device register
    ReadShared,    //!< coherent read for a shared copy (load miss)
    ReadExclusive, //!< coherent read-to-own (store miss)
    Upgrade,       //!< address-only invalidation (store to S/O copy)
    Writeback,     //!< dirty block written back to its home
    Update,        //!< word update pushed to sharers (dragon/hybrid)
};

const char *toString(TxnKind k);

/** Which side of the node hierarchy initiated a transaction. */
enum class Initiator
{
    Processor, //!< the CPU / its cache
    Device,    //!< the NI device
};

/** One bus transaction. */
struct BusTxn
{
    TxnKind kind = TxnKind::ReadShared;
    Addr addr = 0;
    Initiator initiator = Initiator::Processor;
    int requesterId = -1;       //!< agent id on the issuing bus
    std::uint64_t data = 0;     //!< payload for uncached writes
    bool forwarded = false;     //!< true once the bridge re-issues it
};

/**
 * What one agent reports back from a snoop. Agents mutate their coherence
 * state inside onBusTxn() (grant-time snooping); the reply describes their
 * *pre-transition* role so the bus can pick the data supplier.
 */
struct SnoopReply
{
    bool hadCopy = false;  //!< had a valid copy before the transaction
    bool supplied = false; //!< was owner and supplies the data
    bool isHome = false;   //!< is the home for this address
    bool transferOwnership = false; //!< supplier passes dirty ownership
    /**
     * The agent held the line but chose to self-invalidate instead of
     * installing the pushed value (hybrid backends: the line's useless-
     * update counter saturated). `hadCopy` stays false so the home drops
     * the agent from the sharer set.
     */
    bool invalidatedOnUpdate = false;
    std::uint64_t data = 0; //!< register value for uncached reads
};

/** Aggregated result delivered to the requester at completion. */
struct SnoopResult
{
    bool cacheSupplied = false; //!< data came from another cache
    bool sharedCopy = false;    //!< some other agent retains/held a copy
    bool homeFound = false;     //!< an attached agent is home for the addr
    bool ownershipTransferred = false; //!< requester must take O state
    /**
     * The Upgrade lost its race (the requester's copy was gone by
     * serialization time) and the backend turned it into a full
     * read-to-own: the completion carries the block, so the requester
     * installs Modified instead of retrying. Directory backends only —
     * a bus upgrade serializes at arbitration, where the copy check is
     * atomic.
     */
    bool upgradeFilled = false;
    /**
     * Update-protocol write completion: other agents still hold valid
     * copies (they absorbed the pushed value), so the writer installs
     * Owned (Sm), not Modified. Invalidation backends never set this.
     */
    bool sharersRemain = false;
    std::uint64_t data = 0;     //!< uncached read data
};

/**
 * Anything attached to a bus: caches, memory, NI devices, the bridge.
 */
class BusAgent
{
  public:
    virtual ~BusAgent() = default;

    /**
     * Snoop callback, invoked at grant time for every attached agent
     * except the requester. The agent updates its own coherence state and
     * reports its pre-transition role.
     */
    virtual SnoopReply onBusTxn(const BusTxn &txn) = 0;

    /** True if this agent is the home for the address. */
    virtual bool isHome(Addr) const { return false; }

    /** Debug name. */
    virtual const std::string &agentName() const = 0;
};

/**
 * The bus proper.
 */
class SnoopBus
{
  public:
    using Done = std::function<void(const SnoopResult &)>;

    SnoopBus(EventQueue &eq, std::string name, BusKind kind);

    /** Attach an agent; returns its agent id on this bus. */
    int attach(BusAgent *agent);

    /**
     * Issue a transaction with automatic occupancy (from the timing spec)
     * and automatic release. `done` runs when the bus transaction
     * completes (occupancy elapsed).
     */
    void transact(const BusTxn &txn, Done done);

    /**
     * Manual-hold issue, for the bridge: grant + snoop happen normally,
     * `granted` runs at grant time with the snoop result, and the holder
     * must call release() exactly once to free the bus. Occupancy
     * accounting covers the whole held interval.
     */
    void acquire(const BusTxn &txn, Done granted);

    /** Free the bus after acquire(); grants the next queued request. */
    void release();

    /** Occupancy of `txn` given who supplied the data (Table 2). */
    Tick occupancyFor(const BusTxn &txn, const SnoopResult &res) const;

    BusKind kind() const { return kind_; }
    const BusTimingSpec &spec() const { return spec_; }
    bool busy() const { return busy_; }
    /** Requests waiting for arbitration (model-check quiescence). */
    std::size_t queueDepth() const { return queue_.size(); }
    const std::string &name() const { return name_; }
    EventQueue &eventQueue() { return eq_; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    /** Total cycles the bus was held (for the Section 5.2 occupancy data). */
    Tick occupiedCycles() const { return occupiedCycles_; }

    /**
     * Count `n` uncached reads that were never issued (idle-poll
     * fast-forward): the transactions, their occupancy and the held
     * cycles, as `n` grants of an idle bus would have counted them.
     */
    void chargeUncachedReads(std::uint64_t n);

  private:
    struct Pending
    {
        BusTxn txn;
        Done granted;
        bool autoRelease;
    };

    void grantNext();
    void startTxn(Pending p);
    SnoopResult broadcast(const BusTxn &txn);

    EventQueue &eq_;
    std::string name_;
    BusKind kind_;
    BusTimingSpec spec_;
    std::vector<BusAgent *> agents_;
    /**
     * Arbitration FIFO. A vector popped from the front: a node bus
     * queues a handful of requests at most, and unlike a deque it keeps
     * its buffer, so arbitration allocates nothing once warm.
     */
    std::vector<Pending> queue_;
    bool busy_ = false;
    Tick heldSince_ = 0;
    Tick occupiedCycles_ = 0;
    StatSet stats_;
    StatSet::Counter cTxns_;
    StatSet::Counter cOccupancyCycles_;
    StatSet::Counter cTxnKind_[7]; //!< per-TxnKind, indexed by enum value
};

} // namespace cni

#endif // CNI_BUS_BUS_HPP
