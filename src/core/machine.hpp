/**
 * @file
 * The simulated parallel machine (Section 4.1) and its declarative
 * description API. A machine is N nodes — each a 200 MHz dual-issue
 * processor with a 256 KB direct-mapped cache, a 100 MHz coherent memory
 * bus (plus optional coherent I/O bus behind a bridge, or a
 * processor-local cache bus), one network-interface device chosen by
 * name from the NiRegistry, and a shared network fabric.
 *
 * This is the primary entry point of the library:
 *
 *   Machine m = Machine::describe()
 *                   .nodes(2)
 *                   .ni("CNI16Qm")
 *                   .placement(NiPlacement::MemoryBus)
 *                   .build();
 *   m.spawn(0, pingProgram(m.endpoint(0)));
 *   m.spawn(1, pongProgram(m.endpoint(1)));
 *   Tick t = m.run();
 *   std::string json = m.report(); // config + stats, one document
 *
 * Per-node overrides make heterogeneous machines one-liners:
 *
 *   Machine::describe().nodes(4).ni("CNI16Qm").nodeNi(3, "CNI4").build();
 */

#ifndef CNI_CORE_MACHINE_HPP
#define CNI_CORE_MACHINE_HPP

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coh/domain.hpp"
#include "core/taxonomy.hpp"
#include "mem/main_memory.hpp"
#include "mem/node_memory.hpp"
#include "msg/endpoint.hpp"
#include "msg/msg_layer.hpp"
#include "net/network.hpp"
#include "ni/cniq.hpp"
#include "ni/net_iface.hpp"
#include "proc/proc.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel_kernel.hpp"
#include "sim/task.hpp"

namespace cni
{

class Machine;
class MachineBuilder;

// Hard resource ceilings enforced by MachineSpec::valid(). Machine
// descriptions can arrive from untrusted input (the sweep daemon's
// HTTP jobs), so "build a machine" must not be spellable as "allocate
// everything": absurd sizes are structured validation errors, not
// OOM kills.
constexpr int kMaxNodes = 65536;
constexpr int kMaxThreads = 4096;   //!< host worker threads
constexpr int kMaxContexts = 4096;  //!< user processes per node
constexpr int kMaxDirEntries = 1 << 24; //!< per-home sparse entries
constexpr Tick kMaxNetCycles = Tick(1) << 32; //!< latency, retry interval
constexpr std::size_t kMaxLinkBw = 1 << 20;   //!< bytes per cycle
constexpr int kMaxWindow = 1 << 20;           //!< slots per destination

/** Fully resolved description of one node. */
struct NodeSpec
{
    std::string ni = "CNI16Qm"; //!< NiRegistry model name
    int contexts = 1;           //!< user processes sharing the device
    std::optional<CniqConfig> cniq; //!< CNIiQ ablation override
};

/** Sparse per-node override; unset fields fall back to the defaults. */
struct NodeOverride
{
    std::optional<std::string> ni;
    std::optional<int> contexts;
    std::optional<CniqConfig> cniq;
};

/**
 * A complete, validated-on-build machine description. Plain data:
 * copyable, comparable by field, safe to extend (no hand-rolled copy
 * constructor to forget fields in).
 */
struct MachineSpec
{
    int numNodes = 16;
    NiPlacement placement = NiPlacement::MemoryBus;
    bool snarfing = false; //!< processor caches snarf writebacks (Qm)
    NetParams net;         //!< interconnect model + runtime knobs
    /**
     * Coherence backend, by CoherenceRegistry name. "snoop" (default):
     * the paper's per-node snooping buses; "directory": a home-node
     * MOESI directory whose protocol messages ride the interconnect
     * (requires a routed fabric and memory-bus NI placement).
     */
    std::string coherence = "snoop";
    /**
     * Directory geometry (backends with the directoryGeometry trait):
     * sparse per-home entry cap + associativity (0 entries = exact full
     * map) and the remote-miss data path (4-hop home-centric vs 3-hop
     * owner forwarding). See coh/domain.hpp.
     */
    DirParams dir;
    /**
     * Simulation kernel selection. 0 (default): the classic serial
     * kernel — one global-order event queue, the paper-exact execution
     * order. >= 1: the sharded kernel (one shard per node, conservative
     * window synchronization, `threads` host worker threads); any two
     * thread counts produce bit-identical runs, but the sharded kernel's
     * same-tick merge order differs from the classic serial kernel's.
     */
    int threads = 0;
    NodeSpec defaults;
    std::map<NodeId, NodeOverride> overrides;

    /** The resolved description of node `id`. */
    NodeSpec node(NodeId id) const;

    bool heterogeneous() const;

    /** Human-readable label, e.g. "CNI16Qm/memory-bus+snarf". */
    std::string label() const;

    /**
     * Is this description implementable (Section 5)? Checks every node's
     * model against the registry traits; on failure `why` explains what
     * to change.
     */
    bool valid(std::string *why = nullptr) const;
};

/**
 * Fluent builder over MachineSpec. All setters return *this; build()
 * validates and constructs the machine (fatal, with an actionable
 * message, on an invalid combination).
 */
class MachineBuilder
{
  public:
    MachineBuilder &
    nodes(int n)
    {
        spec_.numNodes = n;
        return *this;
    }

    /** Default NI model for every node, by registry name. */
    MachineBuilder &
    ni(const std::string &model)
    {
        spec_.defaults.ni = model;
        return *this;
    }

    MachineBuilder &
    placement(NiPlacement p)
    {
        spec_.placement = p;
        return *this;
    }

    // Coherence -------------------------------------------------------------

    /** Coherence backend by CoherenceRegistry name: snoop|directory. */
    MachineBuilder &
    coherence(const std::string &backend)
    {
        spec_.coherence = backend;
        return *this;
    }

    /** Per-home directory entry cap; 0 = exact full map (default). */
    MachineBuilder &
    dirEntries(int n)
    {
        spec_.dir.entries = n;
        return *this;
    }

    /** Sparse directory set associativity (entries / assoc sets). */
    MachineBuilder &
    dirAssoc(int ways)
    {
        spec_.dir.assoc = ways;
        return *this;
    }

    /** Remote-miss data path: 4 = home-centric, 3 = owner forwards. */
    MachineBuilder &
    dirHops(int n)
    {
        spec_.dir.hops = n;
        return *this;
    }

    /**
     * Adaptive update→invalidate flip point (backends with the
     * adaptiveUpdate trait, i.e. "hybrid"): a sharer self-invalidates
     * after this many consecutive unread updates. See
     * DirParams::updThreshold.
     */
    MachineBuilder &
    hybridThreshold(int t)
    {
        spec_.dir.updThreshold = t;
        return *this;
    }

    // Interconnect ----------------------------------------------------------

    /** Interconnect model by NetRegistry name: ideal|mesh|torus|xbar. */
    MachineBuilder &
    net(const std::string &topology)
    {
        spec_.net.topology = topology;
        return *this;
    }

    /** Replace the whole parameter block (sweeps and ablations). */
    MachineBuilder &
    net(const NetParams &p)
    {
        spec_.net = p;
        return *this;
    }

    /** Fabric latency in cycles (ideal end-to-end, crossbar transit). */
    MachineBuilder &
    netLatency(Tick cycles)
    {
        spec_.net.latency = cycles;
        return *this;
    }

    /** Sliding-window depth per (source, destination) pair. */
    MachineBuilder &
    window(int depth)
    {
        spec_.net.window = depth;
        return *this;
    }

    /** Link/port serialization bandwidth in bytes per cycle. */
    MachineBuilder &
    linkBandwidth(std::size_t bytesPerCycle)
    {
        spec_.net.linkBw = bytesPerCycle;
        return *this;
    }

    /** Congested-receiver retry interval in cycles. */
    MachineBuilder &
    netRetry(Tick cycles)
    {
        spec_.net.retryInterval = cycles;
        return *this;
    }

    /** Per-hop router + wire latency in cycles (mesh/torus). */
    MachineBuilder &
    hopLatency(Tick cycles)
    {
        spec_.net.hopLatency = cycles;
        return *this;
    }

    /** Mesh/torus grid dimensions (must cover the node count). */
    MachineBuilder &
    meshDims(int x, int y)
    {
        spec_.net.meshX = x;
        spec_.net.meshY = y;
        return *this;
    }

    /**
     * Sharded kernel: distance-aware lookahead windows (see
     * NetParams::distLookahead). No effect on the serial kernel.
     */
    MachineBuilder &
    distLookahead(bool on = true)
    {
        spec_.net.distLookahead = on;
        return *this;
    }

    // Simulation kernel -----------------------------------------------------

    /**
     * Run on the sharded kernel with `n` host threads (n >= 1); 0
     * restores the classic serial kernel. See MachineSpec::threads for
     * the determinism contract.
     */
    MachineBuilder &
    threads(int n)
    {
        spec_.threads = n;
        return *this;
    }

    /** Default user processes per node (CNIiQ family only). */
    MachineBuilder &
    contexts(int n)
    {
        spec_.defaults.contexts = n;
        return *this;
    }

    MachineBuilder &
    snarfing(bool on = true)
    {
        spec_.snarfing = on;
        return *this;
    }

    /** Override the CNIiQ device configuration (ablation studies). */
    MachineBuilder &
    cniq(const CniqConfig &c)
    {
        spec_.defaults.cniq = c;
        return *this;
    }

    // Per-node overrides (heterogeneous machines) ---------------------------

    MachineBuilder &
    nodeNi(NodeId id, const std::string &model)
    {
        spec_.overrides[id].ni = model;
        return *this;
    }

    MachineBuilder &
    nodeContexts(NodeId id, int n)
    {
        spec_.overrides[id].contexts = n;
        return *this;
    }

    MachineBuilder &
    nodeCniq(NodeId id, const CniqConfig &c)
    {
        spec_.overrides[id].cniq = c;
        return *this;
    }

    // Terminal operations ---------------------------------------------------

    bool
    valid(std::string *why = nullptr) const
    {
        return spec_.valid(why);
    }

    const MachineSpec &spec() const { return spec_; }

    /** Validate and construct. Fatal on an invalid description. */
    Machine build() const;

  private:
    MachineSpec spec_;
};

class Machine
{
  public:
    /** Start a fluent machine description. */
    static MachineBuilder describe() { return MachineBuilder{}; }

    explicit Machine(MachineSpec spec);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    int numNodes() const { return spec_.numNodes; }
    const MachineSpec &spec() const { return spec_; }

    /**
     * The classic serial kernel's queue. Under the sharded kernel this
     * queue carries no events — use eq(NodeId) or now() instead.
     */
    EventQueue &eq() { return eq_; }

    /**
     * The queue driving node `n`: its shard queue under the sharded
     * kernel, the global queue otherwise. Node-local code (workload
     * coroutines, measurement probes) must read time from here.
     */
    EventQueue &
    eq(NodeId n)
    {
        cni_assert(n >= 0 && n < spec_.numNodes);
        return kernel_ ? kernel_->shardQueue(n) : eq_;
    }

    /** Latest simulated tick reached (kernel-agnostic). */
    Tick now() const { return kernel_ ? kernel_->now() : eq_.now(); }

    /** The sharded kernel, or nullptr on the classic serial kernel. */
    const ParallelKernel *kernel() const { return kernel_.get(); }

    Interconnect &net() { return *net_; }
    Proc &proc(NodeId n) { return *node(n).proc; }
    NetIface &ni(NodeId n) { return *node(n).ni; }
    NodeMemory &mem(NodeId n) { return *node(n).mem; }

    /** Node `n`'s coherence domain (snooping fabric, directory, ...). */
    CoherenceDomain &coherence(NodeId n) { return *node(n).coh; }

    /**
     * The messaging facade for context `ctx` of node `n` — typed
     * send/recv/rpc without handler-id plumbing. Preferred over msg().
     */
    Endpoint &
    endpoint(NodeId n, int ctx = 0)
    {
        auto &eps = node(n).endpoints;
        cni_assert(ctx >= 0 && ctx < int(eps.size()));
        return *eps[ctx];
    }

    /** The raw active-message layer (low-level; prefer endpoint()). */
    MsgLayer &
    msg(NodeId n, int ctx = 0)
    {
        auto &layers = node(n).msg;
        cni_assert(ctx >= 0 && ctx < int(layers.size()));
        return *layers[ctx];
    }

    /**
     * Start a workload coroutine on node `n` (counted toward
     * completion). A node running exactly one spawned task may have its
     * quiet receive spins fast-forwarded (MsgLayer::pollUntil).
     */
    void spawn(NodeId n, CoTask<void> task);

    /**
     * Run until every spawned workload task finishes. Returns the final
     * simulated tick. Fails (fatal) if the event queue drains first —
     * that means the workload deadlocked.
     */
    Tick run();

    /** Run at most `limit` ticks (for watchdog-style tests). */
    Tick runUntil(Tick limit);

    bool workloadDone() const { return group_->done(); }

    /** Sum of memory-bus occupied cycles across all nodes (Section 5.2). */
    Tick memBusOccupiedCycles() const;

    /** Aggregate statistics over every component in the machine. */
    StatSet aggregateStats() const;

    /**
     * One JSON document with the full configuration, runtime state, and
     * aggregate statistics — the single source for benchmark harnesses,
     * so they never re-implement aggregation.
     */
    std::string report() const;

  private:
    struct Node
    {
        std::unique_ptr<NodeMemory> mem;
        std::unique_ptr<CoherenceDomain> coh;
        std::unique_ptr<MainMemory> mainMem;
        std::unique_ptr<Proc> proc;
        std::unique_ptr<NetIface> ni;
        std::vector<std::unique_ptr<MsgLayer>> msg;
        std::vector<std::unique_ptr<Endpoint>> endpoints;
    };

    Node &
    node(NodeId n)
    {
        cni_assert(n >= 0 && n < int(nodes_.size()));
        return *nodes_[n];
    }

    /** MsgLayer::setPollHorizon's source for node `n`'s layers. */
    Tick pollHorizon(NodeId n) const;

    MachineSpec spec_;
    //! Counts this instance live so registry mutation can assert
    //! against racing a running machine (sim/audit.hpp).
    audit::MachineScope auditScope_;
    EventQueue eq_;
    std::unique_ptr<ParallelKernel> kernel_; //!< sharded kernel, if on
    std::unique_ptr<Interconnect> net_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<TaskGroup> group_;
    std::vector<int> tasksOn_; //!< spawn()s per node
    bool running_ = false;     //!< inside run()/runUntil() (serial)
    Tick runLimit_ = EventQueue::kNoEvent; //!< runUntil()'s bound
};

} // namespace cni

#endif // CNI_CORE_MACHINE_HPP
