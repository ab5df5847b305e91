/**
 * @file
 * cnimc — exhaustive model checking of the *real* coherence backends.
 *
 * The checker is not a re-model of the protocol: it instantiates the
 * production CoherenceDomain backends (snoop / directory, via the
 * CoherenceRegistry) over a real routed Interconnect and a real
 * EventQueue, and explores every reachable protocol state of a tiny
 * machine (2-3 nodes, 1-3 blocks). It installs the Interconnect's hold
 * hook, so every in-flight protocol message — each coherence-lane
 * message and each node-local directory hop — lands in the checker's
 * held list instead of the event queue:
 *
 *  - A *stable point* is a state whose event queue is empty: every
 *    deterministic continuation has run in canonical (tick, seq) order
 *    and only held messages remain in flight.
 *  - From a stable point the enabled transitions are (a) deliver the
 *    FIFO head of any message channel (src * nodes + dst), and (b)
 *    have any idle mirror agent issue any enabled memory action.
 *    Applying a transition and running the queue dry yields the next
 *    stable point, deterministically.
 *  - Visited states are fingerprinted through McEncoder (ticks/stats
 *    excluded, values and request ids renamed, node labels permuted
 *    over every valid symmetry), so exploration terminates.
 *
 * The mirror agents replay mem/cache.cpp's exact MOESI decisions and
 * carry an explicit value token per line, which makes four invariant
 * families checkable at every stable point:
 *
 *  - SWMR: at most one M/E/O copy, and M/E exclude all other copies;
 *  - data value: every valid copy equals the last committed write, and
 *    every fill observes it;
 *  - exactly-once: each issued transaction completes exactly once;
 *  - liveness shape: no stuck state once nothing is scheduled or held
 *    (every domain mcQuiescent, no agent left outstanding) and
 *    park/recall queues stay bounded.
 *
 * Exploration is depth-first with snapshot-stack backtracking (cheap:
 * memory is O(path); a snapshot is the clock, the held list, the
 * domains' protocol state and the mirrors); when a violation is found
 * the checker re-runs breadth-first from the root, which yields a
 * guaranteed-minimal counterexample trace. Traces replay through the
 * same rig (replay()).
 */

#ifndef CNI_MC_CHECKER_HPP
#define CNI_MC_CHECKER_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coh/domain.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"

namespace cni
{

class McEncoder;

/** What to check and how hard to try. */
struct McConfig
{
    std::string backend = "directory"; //!< CoherenceRegistry name
    DirParams dir{};                   //!< directory geometry
    int nodes = 2;
    /**
     * Coherent blocks in play. Block j belongs to node j % nodes (only
     * that node's processor-cache and NI mirror agents act on it — the
     * machine's address space is per-node private) and is always
     * remote-homed on the directory backend. Three blocks on a 2-node
     * machine put two same-home, same-set blocks in play — the sparse
     * recall/park paths.
     */
    int blocks = 1;
    std::size_t maxStates = 2'000'000; //!< visited-state cap (safety)
    std::size_t maxDepth = 100'000;    //!< DFS path-length cap (safety)
    /** Park/waiting-depth bound; 0 = auto (2 * nodes). */
    std::size_t maxPark = 0;
    /**
     * Arm DirectoryFabric::testSkipFwdDoneHold for the run — the
     * checker's own self-check: it must find the stale-FwdData window
     * the hold exists to close.
     */
    bool seedBug = false;
};

/** One exploration step — serializable, replayable. */
struct McStep
{
    bool deliver = false; //!< message delivery vs agent action
    // deliver:
    std::int32_t channel = -1; //!< src * nodes + dst
    std::string label;         //!< message op (trace cosmetics)
    // action:
    int node = -1;
    int slot = -1;  //!< 0 = processor cache, 1 = NI device
    int block = -1; //!< block index (McConfig::blocks)
    int act = 0;    //!< McChecker::Act
};

/** Outcome of a check() or replay() run. */
struct McResult
{
    std::size_t visited = 0;     //!< distinct canonical states
    std::size_t transitions = 0; //!< transitions executed (incl. revisits)
    std::size_t terminals = 0;   //!< fully quiescent endpoint states
    std::size_t maxParkSeen = 0; //!< deepest park/waiting queue observed
    std::size_t symmetries = 1;  //!< valid node permutations used
    bool truncated = false;      //!< hit maxStates/maxDepth — not exhaustive
    std::vector<std::string> violations; //!< empty = all invariants held
    std::vector<McStep> trace; //!< minimal path to the first violation

    bool clean() const { return violations.empty(); }
};

class McChecker
{
  public:
    /** Memory actions a mirror agent can take on one of its blocks. */
    enum Act
    {
        kRead = 0,  //!< load (GetS) — from Invalid
        kWrite,     //!< store — GetM from I, Upgrade from S/O, silent E/M
        kDrop,      //!< silent clean eviction — from S/E
        kWriteback, //!< dirty eviction (WB + data) — from O/M
        /**
         * Load hit on a Shared line — no transaction, but under the
         * adaptive update backend it resets the line's useless-update
         * counter, so the explorer must be able to interleave it with
         * incoming updates. Enumerated only when it changes state
         * (hybrid threshold armed, counter nonzero).
         */
        kTouch,
    };

    explicit McChecker(const McConfig &cfg);
    ~McChecker();

    McChecker(const McChecker &) = delete;
    McChecker &operator=(const McChecker &) = delete;

    /**
     * Exhaust the state space (DFS). On a violation, re-explore
     * breadth-first to return a minimal counterexample trace.
     */
    McResult check();

    /**
     * Apply a recorded trace step by step from the initial state and
     * report any violations it reproduces — the regression-test replay
     * path.
     */
    McResult replay(const std::vector<McStep> &trace);

    /** Summary (and counterexample, if any) as a JSON object. */
    static void writeJson(const McConfig &cfg, const McResult &res,
                          std::ostream &os);

  private:
    struct CacheMirror;
    struct MemMirror;
    friend struct CacheMirror;
    friend struct MemMirror;

    static constexpr int kCacheSlot = 0;
    static constexpr int kNiSlot = 1;
    static constexpr int kSlots = 2; //!< driven mirror agents per node

    /** MOESI of one mirrored line (mirrors mem/cache.hpp's Moesi). */
    enum class St : std::uint8_t
    {
        I,
        S,
        E,
        O,
        M
    };

    struct Line
    {
        St st = St::I;
        std::uint64_t val = 0; //!< value token this copy holds
        /** Mirror of Cache::Line::unreadUpdates (update backends). */
        std::uint8_t unread = 0;
    };

    /** Protocol-visible model state of one driven mirror agent. */
    struct AgentModel
    {
        std::vector<Line> lines; //!< per configured block
        bool outstanding = false;
        int actBlock = -1;
        int actKind = 0;            //!< Act
        TxnKind actTxn = TxnKind::ReadShared;
        std::uint64_t wrVal = 0; //!< token a pending write will commit
    };

    /** One configured coherent block. */
    struct BlockCfg
    {
        Addr local = 0;     //!< node-local address (issue/probe space)
        Addr globalKey = 0; //!< directory's global key (fingerprints)
        NodeId req = 0;     //!< owning node (its agents drive it)
        NodeId home = 0;    //!< serialization point
        int ord = 0;        //!< per-node ordinal (symmetry-invariant)
    };

    /**
     * One in-flight protocol message, as the Interconnect's hold hook
     * handed it over: a fabric message or a node-local hop (src == dst).
     */
    struct Held
    {
        std::int32_t channel = -1; //!< src * nodes + dst
        Tick arrival = 0;          //!< the timing model's arrival tick
        const char *label = "";    //!< trace name
        NetMsg msg;
    };

    /** Everything restore() needs — one backtracking point. */
    struct RigSnap
    {
        EventQueue::Snapshot eq;
        std::vector<Held> held;
        std::vector<std::shared_ptr<const void>> dom;
        std::vector<AgentModel> agents;
        std::vector<std::uint64_t> mem;
        std::vector<std::uint64_t> current;
        std::uint64_t nextToken = 0;
    };

    // Rig construction + bookkeeping.
    void buildBlocks();
    void buildSymmetries();
    AgentModel &agentAt(NodeId n, int slot)
    {
        return agents_[std::size_t(n) * kSlots + std::size_t(slot)];
    }
    int blockByLocal(Addr a) const;
    std::uint64_t freshToken() { return nextToken_++; }
    void fail(const std::string &what);

    /**
     * Data-value predicate. Invalidation backends demand the exact last
     * committed value. Update backends push the written word to sharers
     * *before* the writer's grant commits it, so mid-flight a valid copy
     * may legitimately hold the value of any outstanding write to the
     * block — membership in {current} ∪ {pending write tokens}.
     */
    bool valCurrentOrPending(int block, std::uint64_t v) const;

    // The stable-point step machine.
    /** The oldest held message on `channel`, or held_.end(). */
    std::vector<Held>::const_iterator headOf(std::int32_t channel) const;
    /** Nothing scheduled and nothing held: no event can ever run. */
    bool nothingInFlight() const { return eq_.empty() && held_.empty(); }
    std::vector<McStep> enumerate() const;
    bool canApply(const McStep &s) const;
    void apply(const McStep &s);
    void applyAction(const McStep &s);
    void onComplete(NodeId n, int slot, int block, int kind,
                    std::uint64_t wrVal, const SnoopResult &r);
    void checkInvariants();

    // State capture.
    RigSnap snap() const;
    void restore(const RigSnap &s);
    std::uint64_t fingerprint() const;
    void encodeState(McEncoder &enc, const std::vector<int> &perm,
                     const std::vector<int> &inv) const;

    // Exploration.
    bool explore(bool breadthFirst, McResult &res);

    McConfig cfg_;
    std::size_t maxPark_;
    EventQueue eq_;
    NetParams netParams_;
    std::unique_ptr<Interconnect> net_;
    std::vector<std::unique_ptr<CoherenceDomain>> dom_;
    std::vector<std::unique_ptr<CacheMirror>> mirrors_;
    std::vector<std::unique_ptr<MemMirror>> mems_;
    std::vector<int> requesterIds_; //!< per (node, slot) attach id
    bool armedSeedBug_ = false;
    bool updateProtocol_ = false; //!< backend pushes updates (traits)
    /** Hybrid flip point for the cache-slot mirrors; 0 = never flip. */
    int mirrThr_ = 0;

    // Model state (snapshotted).
    std::vector<Held> held_; //!< in-flight messages, injection order
    std::vector<AgentModel> agents_;
    std::vector<std::uint64_t> memVal_;  //!< per block: memory's value
    std::vector<std::uint64_t> current_; //!< per block: last committed
    std::uint64_t nextToken_ = 1;

    // Block plan + symmetry group.
    std::vector<BlockCfg> blocks_;
    std::map<Addr, int> byLocal_;
    std::vector<std::vector<int>> perms_;    //!< valid node relabelings
    std::vector<std::vector<int>> permInv_;  //!< their inverses
    std::vector<std::map<Addr, std::uint32_t>> permCodes_;

    // Per-transition violation collection.
    std::vector<std::string> violations_;
    std::size_t maxParkSeen_ = 0;
    RigSnap root_;
};

} // namespace cni

#endif // CNI_MC_CHECKER_HPP
