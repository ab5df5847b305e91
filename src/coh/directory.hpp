/**
 * @file
 * Home-node MOESI directory coherence — the "directory", "dragon" and
 * "hybrid" CoherenceDomain backends (ROADMAP: "CNI on a directory
 * machine").
 *
 * Instead of broadcasting every transaction on a per-node snooping bus,
 * each cacheable block has a *home node* that tracks its owner and
 * sharers in a directory and serializes requests to it. The machine's
 * memory forms one global physical address space in which each node's
 * private memory occupies a distinct slice (global block = node ×
 * blocks-per-node + local block — the simulator's address map is
 * per-node private, so two nodes' identical local addresses are
 * *different* physical blocks and never falsely conflict), and global
 * blocks are interleaved across home nodes round-robin, exactly like a
 * NUMA directory machine's line-interleaved homes. NI device space is
 * always homed at its own node (the device is the home agent, exactly
 * as on the bus).
 *
 * Protocol messages (GetS/GetM/Upgrade/WB requests, Fwd/Inv probes,
 * their acks, and Grant/WbAck responses) are Interconnect messages on a
 * dedicated coherence lane: they pay the fabric's full per-hop routing
 * and link-occupancy cost, the sharded kernel's window merging applies
 * to them unchanged, and because every route costs >= minLatency() the
 * conservative lookahead stays correct with zero extra machinery. The
 * lane has no sliding-window flow control and its receivers always
 * accept (a real machine's separate request/response virtual networks),
 * so coherence can never deadlock behind congested NI data traffic.
 *
 * The protocol is a home-centric MOESI with a configurable data path
 * (DirParams::hops). 4-hop (default): requester -> home -> peer ->
 * home -> requester. 3-hop: the home forwards a GetS/GetM to the
 * owner, which sends the block straight to the requester (FwdData)
 * while acking the home in parallel — one fabric traversal less per
 * cache-to-cache miss. The home keeps the block's entry busy until
 * both the owner's ack *and* the requester's FwdDone (sent once the
 * forwarded block is installed) have landed, so a later probe can
 * never overtake the FwdData still in flight and every race still
 * serializes at the home; a stale owner (writeback in flight) simply
 * acks "no copy" — cancelling the FwdDone expectation — upon which the
 * home falls back to the 4-hop memory supply. The FwdDone is
 * address-only and off the requester's critical path, so the latency
 * win is intact. Peers reuse the
 * exact snooping state machines: a Fwd applies onBusTxn(ReadShared) to
 * the owner (M->O supply, or ownership transfer), an Inv applies
 * onBusTxn(ReadExclusive/Upgrade) to each sharer — so mem/cache.* and
 * the NI device models behave bit-identically to their bus selves,
 * only the transport differs.
 *
 * The directory itself is either an exact full map (DirParams::entries
 * == 0) or sparse: a set-associative entry cache per home (entries /
 * assoc sets) covering only main-memory blocks (NI device space is
 * home-local and exempt). Allocating into a full set evicts the
 * least-recently-used non-busy entry first: the home recalls the
 * victim — invalidation probes to every sharer, a data recall to a
 * dirty owner whose block memory then absorbs — and only then admits
 * the new block ("dir_evictions" / "dir_recalls" /
 * "dir_recall_writebacks" counters). Requests that cannot find a
 * recallable victim (every way busy) wait on the set and drain as
 * entries release.
 *
 * Update protocols ("dragon" and "hybrid": the fabric built with
 * pushUpdates set). The Dragon family keeps sharers *alive* on a
 * write: instead of invalidating every other copy, a store to a shared
 * line broadcasts the written word over the coherence lane and the
 * sharers absorb it. The classic Sc/Sm states map straight onto the
 * MOESI lattice (mem/moesi.hpp: Sc = Shared, Sm = Owned — the last
 * writer supplies, home is stale), so the caches need no new states,
 * only an update install path (Cache::onBusTxn TxnKind::Update).
 * Exclusive requests (GetM/Upgrade) send TxnKind::Update probes
 * carrying the value, sharers stay registered, the grant's
 * kSharersRemain makes the writer install Sm instead of M, and
 * subsequent writes from the Sm owner keep pushing updates. A sharer
 * that silently evicted acks "no copy" and is dropped — counted as a
 * useless update. Reads, writebacks, sparse recalls, and the GetS
 * 3-hop forward are untouched. Updates win when consumers re-read what
 * a producer keeps writing (producer–consumer: every consumer read
 * stays a hit) and lose on migratory sharing, where every write pays
 * an update round trip that an invalidation protocol amortizes into
 * one ownership transfer (bench/fig_protocol.cpp shows both).
 *
 * "hybrid" adapts per line, per sharer, with no change on the fabric
 * side: the decision lives in the sharer's cache
 * (Cache::setUpdateThreshold). Each cache line carries a saturating
 * useless-update counter — an absorbed update increments it, a read
 * hit resets it — and when it reaches DirParams::updThreshold
 * (--hybrid-threshold) the sharer *self-invalidates* instead of
 * absorbing the next update. Its "no copy" ack drops it from the
 * directory (counted in `mode_flips` at the sharer, `useless_updates`
 * at the home), so the line flips to invalidate mode for that sharer:
 * once every idle sharer has dropped off, the writer's grant loses
 * kSharersRemain, it installs plain Modified, and subsequent writes
 * are silent cache hits — exactly the invalidation protocol's
 * migratory behaviour. A sharer that starts reading again re-registers
 * through an ordinary GetS and the line is back in update mode.
 *
 * Timing: each node has one memory port (a SerialResource at the
 * Table 2 memory-bus rates) standing in for the bus: requests occupy it
 * for the address phase, block transfers for the Table 2 block cost, at
 * the requester, the home, and any probed peer. Its busy cycles are the
 * node's memBusOccupiedCycles().
 */

#ifndef CNI_COH_DIRECTORY_HPP
#define CNI_COH_DIRECTORY_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bus/timing.hpp"
#include "coh/domain.hpp"
#include "net/network.hpp"

namespace cni
{

class DirectoryFabric : public CoherenceDomain, public NiPort
{
  public:
    /**
     * @param pushUpdates exclusive requests (GetM/Upgrade) push the
     *        written value to sharers as word updates instead of
     *        invalidating them ("dragon", "hybrid"). Sharers that
     *        absorbed the value stay in the directory and the grant
     *        tells the writer to install Owned (Sm) instead of
     *        Modified. With false, the fabric is the plain
     *        invalidation directory.
     */
    DirectoryFabric(EventQueue &eq, NodeId node, int numNodes,
                    Interconnect &net, const std::string &name,
                    const DirParams &dir = DirParams{},
                    bool pushUpdates = false);

    // CoherenceDomain -------------------------------------------------------
    int attachCache(BusAgent *agent) override;
    int attachHome(BusAgent *agent) override;
    int attachNi(BusAgent *agent) override;
    void procIssue(const BusTxn &txn, Done done) override;
    void deviceIssue(const BusTxn &txn, Done done) override;
    Tick memBusOccupiedCycles() const override { return port_.busyCycles; }
    void mergeStats(StatSet &agg) const override { agg.merge(stats_); }
    void reportCoherence(JsonWriter &w) const override;

    StatSet &stats() { return stats_; }

    // NiPort (coherence-lane deliveries) ------------------------------------
    bool netDeliver(const NetMsg &msg) override;

    /** Home node of an address as seen from this node (test/debug). */
    NodeId homeNodeOf(Addr a) const;

    /**
     * This node's view of an address in the machine's global physical
     * space: main memory is lifted into a per-node slice above
     * kGlobalMemBase; NI space is node-local and passes through.
     * Protocol messages carry global addresses (directory keys);
     * probes localize them back before touching a cache.
     */
    Addr globalize(Addr a) const;
    static Addr localize(Addr g);

    /** Blocks this node's directory currently tracks (test/debug). */
    std::size_t trackedBlocks() const { return dir_.size(); }

    // Model-checking seam (src/mc) ------------------------------------------
    std::shared_ptr<const void> mcSnapshot() const override;
    void mcRestore(const std::shared_ptr<const void> &snap) override;
    void mcEncode(McEncoder &enc) const override;
    void mcEncodeWire(McEncoder &enc, const std::uint8_t *blob,
                      std::size_t len) const override;
    bool mcQuiescent(std::string *why) const override;
    std::size_t mcParkDepth() const override;

    /**
     * Test-only fault injection for cnimc's self-check: when set, the
     * home releases a 3-hop transaction on the owner's ack alone
     * instead of also holding for the requester's FwdDone — the exact
     * race window the FwdDone hold exists to close. The checker must
     * find the resulting stale-copy violation (tests/mc).
     *
     * Atomic: the flag is process-global and directory machines may run
     * on several host threads at once (sweep daemon workers); it is
     * constant-false outside the single-threaded model-check rigs, so
     * relaxed loads on the protocol path cost nothing.
     */
    static std::atomic<bool> testSkipFwdDoneHold;

  private:
    // Two caching agents per node take part in the protocol.
    static constexpr int kCacheSlot = 0; //!< processor cache
    static constexpr int kNiSlot = 1;    //!< NI device (its caches)
    static constexpr int kAgentsPerNode = 2;
    /** Cycles for a protocol hop that stays inside the node. */
    static constexpr Tick kLocalHopCycles = 1;
    /**
     * Base of the global physical memory space: far above every
     * per-node range in bus/address_map.hpp, so globalized memory
     * blocks can never collide with node-local NI addresses in a
     * home's directory keys.
     */
    static constexpr Addr kGlobalMemBase = Addr(1) << 32;

    enum class Op : std::uint8_t
    {
        GetS,      //!< requester -> home: coherent read for a shared copy
        GetM,      //!< requester -> home: coherent read-to-own
        Upgrade,   //!< requester -> home: address-only invalidation
        Writeback, //!< requester -> home: dirty block to its home
        Fwd,       //!< home -> owner: supply for a GetS
        Inv,       //!< home -> sharer/owner: invalidate (GetM/Upgrade)
        FwdAck,    //!< owner -> home: supply outcome (+ block on 4-hop)
        InvAck,    //!< sharer -> home: invalidation outcome
        Grant,     //!< home -> requester: permission (+ block)
        WbAck,     //!< home -> requester: writeback absorbed
        FwdData,   //!< owner -> requester: 3-hop direct supply (+ block)
        FwdDone,   //!< requester -> home: FwdData received and installed
    };

    // CohWire::flags bits.
    static constexpr std::uint8_t kSupplied = 1 << 0;
    static constexpr std::uint8_t kHadCopy = 1 << 1;
    static constexpr std::uint8_t kTransferOwner = 1 << 2;
    static constexpr std::uint8_t kSharedCopy = 1 << 3;
    static constexpr std::uint8_t kFromDevice = 1 << 4;
    static constexpr std::uint8_t kFwd3 = 1 << 5; //!< probe: supply the
                                                  //!< requester directly
    /**
     * An Upgrade the home converted to a full GetM: by the time the
     * request serialized, the requester's copy had been invalidated (a
     * racing GetM/Upgrade/recall won), so permission alone is useless —
     * the grant must carry the block. The flag rides the request
     * through the probe fan-out and back on the Grant so the requester
     * knows to install the data.
     */
    static constexpr std::uint8_t kConverted = 1 << 6;
    /**
     * Update-protocol grant: sharers absorbed the pushed value and keep
     * valid copies, so the writer installs Owned (Sm), not Modified.
     */
    static constexpr std::uint8_t kSharersRemain = 1 << 7;

    /** The protocol message, memcpy'd into the NetMsg payload. */
    struct CohWire
    {
        Op op;
        std::uint8_t kind;  //!< TxnKind the probe applies (Fwd/Inv)
        std::uint8_t flags; //!< kSupplied | kHadCopy | ...
        std::int32_t agent; //!< requester global agent / probe target slot
        std::int32_t aux;   //!< kFwd3 probes: the requester's global agent
        std::uint32_t reqId; //!< requester-side completion match
        std::uint64_t addr;
        /**
         * Block value riding the message (writeback payload, supplier
         * ack, Grant/FwdData fill). Pure verification plumbing for the
         * data-value invariant — the timing model never reads it.
         */
        std::uint64_t data;
    };

    /** A requester-side transaction awaiting its Grant/WbAck/FwdData. */
    struct Pending
    {
        BusTxn txn;
        int slot = kCacheSlot;
        bool remoteHome = false; //!< remote-miss latency accounting
        Tick issued = 0;
        Done done;
    };

    /** One home-side transaction in flight for a block. */
    struct HomeTxn
    {
        CohWire req;
        NodeId from = -1;
        int pendingAcks = 0;
        std::uint8_t gathered = 0; //!< OR of ack flags
        bool threeHop = false; //!< the owner was asked to supply directly
        bool fwdDataSent = false; //!< owner's ack echoed kFwd3
        bool recall = false;   //!< eviction recall; `next` retries after
        CohWire next{};        //!< the allocation that forced the recall
        NodeId nextFrom = -1;
        std::uint64_t data = 0;     //!< value a probed peer supplied
        std::uint64_t homeData = 0; //!< home agent's value at serialize
        /**
         * Global agent of the recorded owner this transaction probed
         * (-1: none). If its ack reports no copy, a writeback carrying
         * the only fresh value may have been in flight — per-channel
         * FIFO puts it ahead of the ack, so by ack time it is parked in
         * the entry's waiting queue and the home absorbs it before
         * supplying from memory (absorbQueuedWriteback).
         */
        int probedOwner = -1;
        bool ownerHadCopy = false; //!< that owner's ack carried kHadCopy
    };

    /** Directory entry for one tracked block at its home. */
    struct DirEntry
    {
        int owner = -1;         //!< global agent holding M/O, or -1
        std::set<int> sharers;  //!< global agents holding S
        bool busy = false;      //!< a transaction is being serviced
        /**
         * Created by a writeback to an untracked block (the self-healing
         * stale-WB race): erased again at release, so it must not count
         * against the sparse set cap — a set holding one would otherwise
         * read as full and recall a live way that was about to free.
         */
        bool transientWb = false;
        std::uint64_t lru = 0;  //!< last-service stamp (victim choice)
        std::deque<std::pair<CohWire, NodeId>> waiting;
    };

    static int globalAgent(NodeId n, int slot)
    {
        return n * kAgentsPerNode + slot;
    }
    static NodeId nodeOf(int agent) { return agent / kAgentsPerNode; }
    static int slotOf(int agent) { return agent % kAgentsPerNode; }

    void issueFrom(const BusTxn &txn, int slot, Done done);
    void uncachedIssue(const BusTxn &txn, Done done);

    /**
     * Reserve the node port for `occ` cycles and return the start tick.
     * Zero-cost steps (peer-supplied grants, address-only completions)
     * bypass the port entirely — nothing crosses it, so they must not
     * queue behind unrelated block transfers or inflate its wait/use
     * accounting.
     */
    Tick portStart(Tick occ)
    {
        return occ > 0 ? port_.reserve(eq_.now(), occ) : eq_.now();
    }

    /** Send a protocol message (loops back locally when dst == node_). */
    void sendWire(NodeId dst, CohWire w, bool carriesBlock);
    void dispatch(const CohWire &w, NodeId from);

    // Home side.
    void homeRequest(const CohWire &w, NodeId from);
    void startHomeTxn(CohWire w, NodeId from);
    void processHome(const CohWire &w, NodeId from);
    void homeAck(const CohWire &w, NodeId from);
    void finishGetS(Addr blk, const CohWire &req, NodeId from,
                    std::uint8_t gathered, std::uint64_t data);
    void finishExclusive(Addr blk, const CohWire &req, NodeId from,
                         std::uint8_t gathered, std::uint64_t data);
    /**
     * A probed owner acked without a copy: if its in-flight writeback
     * is already parked in `blk`'s waiting queue (per-channel FIFO
     * guarantees it beat the ack here), absorb it now — memory takes
     * the value, the WbAck goes out, the park entry is consumed — and
     * report the fresh value through `dataOut`. Returns false when no
     * writeback is parked: the owner's copy was dropped clean (silent
     * E replacement / lost upgrade race), memory is already fresh.
     */
    bool absorbQueuedWriteback(Addr blk, int ownerAgent,
                               std::uint64_t *dataOut);
    /** Apply the MOESI GetS transitions; returns "another copy exists". */
    bool updateGetSDirectory(Addr blk, const CohWire &req,
                             std::uint8_t gathered);
    void releaseEntry(Addr blk);
    BusAgent *homeAgentFor(Addr a) const;
    /** Home node of a *global* protocol address (NI space: this node). */
    NodeId homeOfGlobal(Addr g) const;

    // Sparse-directory machinery (cfg_.entries > 0).
    bool isSparse() const { return cfg_.entries > 0; }
    /** Does admitting `w`'s block count against the sparse entry cap? */
    bool needsEntry(const CohWire &w) const;
    std::size_t setOf(Addr g) const;
    /** Resident entries of `set` that count against the way cap. */
    int occupiedWays(std::size_t set) const;
    /** LRU non-busy entry of `set`, or 0 when every way is busy. */
    Addr pickVictim(std::size_t set) const;
    /** Evict `victim`; `nextFrom` < 0 = overflow trim, no retry. */
    void startRecall(Addr victim, const CohWire &next, NodeId nextFrom);
    void finishRecall(Addr victim, std::uint8_t gathered,
                      std::uint64_t data, const CohWire &next,
                      NodeId nextFrom);
    void eraseMember(std::size_t set, Addr blk);

    // Peer side (probe application).
    void peerApply(const CohWire &w, NodeId home);

    // Requester side.
    void complete(const CohWire &w);

    BusTxn reconstructTxn(const CohWire &w, TxnKind kind) const;

    static const char *opName(Op op);
    struct McState; //!< snapshot payload (mcSnapshot/mcRestore)
    /** Canonical fingerprint of one protocol message (`this` = where
     *  the message lives: completions are matched at their dst). */
    void encodeWireCanonical(McEncoder &enc, const CohWire &w) const;

    EventQueue &eq_;
    NodeId node_;
    int numNodes_;
    Interconnect &net_;
    std::string name_;
    DirParams cfg_;      //!< sparse geometry + hop count
    int numSets_ = 0;    //!< cfg_.entries / cfg_.assoc (sparse only)
    const bool pushUpdates_; //!< writes update sharers (dragon, hybrid)
    BusTimingSpec spec_; //!< Table 2 memory-bus rates for the node port
    SerialResource port_; //!< the node's memory path
    BusAgent *agents_[kAgentsPerNode] = {nullptr, nullptr};
    BusAgent *memAgent_ = nullptr; //!< main-memory home agent
    std::uint32_t nextReq_ = 0;
    std::uint64_t lruSeq_ = 0;
    std::map<std::uint32_t, Pending> pending_;
    std::map<Addr, DirEntry> dir_;
    std::map<Addr, HomeTxn> inflight_;
    /** Sparse only: tracked main-memory blocks resident per set. */
    std::map<std::size_t, std::vector<Addr>> setMembers_;
    /** Allocations stalled on a set whose every way is busy. */
    std::map<std::size_t, std::deque<std::pair<CohWire, NodeId>>>
        setWaiting_;
    StatSet stats_;
    /**
     * Pre-bound stat handles (sim/stats.hpp Counter contract): a key
     * still appears exactly when its first incr, or an incr(0)
     * pre-touch, runs. They sit in their own allocation: inline, they
     * would more than double the fabric's size, past glibc's ~1 KiB
     * per-thread-cache limit, and cnimc builds and drops a machine of
     * fabrics per check (cnibench modelcheck setup_s doubled).
     */
    struct Counters
    {
        explicit Counters(StatSet &s) : stats(s) {}

        StatSet &stats;
        StatSet::Counter uncachedReads{stats, "uncached_reads"};
        StatSet::Counter uncachedWrites{stats, "uncached_writes"};
        StatSet::Counter getS{stats, "getS"};
        StatSet::Counter getM{stats, "getM"};
        StatSet::Counter upgrades{stats, "upgrades"};
        StatSet::Counter writebacks{stats, "writebacks"};
        StatSet::Counter localHome{stats, "local_home"};
        StatSet::Counter remoteHome{stats, "remote_home"};
        StatSet::Counter protocolMsgs{stats, "protocol_msgs"};
        StatSet::Counter dirSetStalls{stats, "dir_set_stalls"};
        StatSet::Counter homeQueued{stats, "home_queued"};
        StatSet::Counter dirEvictions{stats, "dir_evictions"};
        StatSet::Counter dirRecalls{stats, "dir_recalls"};
        StatSet::Counter dirRecallWritebacks{stats, "dir_recall_writebacks"};
        StatSet::Counter homeRequests{stats, "home_requests"};
        StatSet::Counter fwds{stats, "fwds"};
        StatSet::Counter upgradeConversions{stats, "upgrade_conversions"};
        StatSet::Counter updatesSent{stats, "updates_sent"};
        StatSet::Counter invs{stats, "invs"};
        StatSet::Counter uselessUpdates{stats, "useless_updates"};
        StatSet::Counter cacheSupplies{stats, "cache_supplies"};
        StatSet::Counter wbAbsorbedOnFallback{stats,
                                              "wb_absorbed_on_fallback"};
        StatSet::Counter memorySupplies{stats, "memory_supplies"};
        StatSet::Counter probesFwd{stats, "probes_fwd"};
        StatSet::Counter probesInv{stats, "probes_inv"};
        StatSet::Counter modeFlips{stats, "mode_flips"};
        StatSet::Counter probeSupplies{stats, "probe_supplies"};
        StatSet::Counter fwd3Supplies{stats, "fwd3_supplies"};
        StatSet::ScalarHandle remoteMissLatency{stats, "remote_miss_latency"};
    };
    std::unique_ptr<Counters> ctr_ = std::make_unique<Counters>(stats_);
};

} // namespace cni

#endif // CNI_COH_DIRECTORY_HPP
