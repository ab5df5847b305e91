/**
 * @file
 * Protocol-agnostic coherence-domain API.
 *
 * A CoherenceDomain is the seam between a node's requesters (processor
 * cache, store buffer, NI device) and whatever machinery keeps the
 * node's memory system coherent. The paper's machines use per-node
 * snooping buses (NodeFabric, bus/fabric.hpp — the "snoop" backend and
 * the default); a home-node MOESI directory whose protocol messages ride
 * the Interconnect (DirectoryFabric, coh/directory.hpp — "directory")
 * opens the ROADMAP's "CNI on a directory machine" scenario.
 *
 * Requesters speak the same BusTxn/SnoopResult vocabulary to every
 * backend: issue a transaction, get a completion callback with the
 * supplier/sharer summary. How the permission was obtained — a bus
 * broadcast or a GetS/GetM exchange with a home directory — is the
 * backend's business, which is exactly what lets the caches, the
 * processor, and the NI device models stay protocol-agnostic.
 *
 * Backends register by name in the CoherenceRegistry (the same pattern
 * as NiRegistry and NetRegistry), each with a CoherenceTraits record the
 * machine builder consults up front (a directory needs a routed fabric;
 * a snooping bus caps its agent count; snarfing is a bus trick).
 */

#ifndef CNI_COH_DOMAIN_HPP
#define CNI_COH_DOMAIN_HPP

#include <coroutine>
#include <functional>
#include <memory>
#include <string>

#include "bus/bus.hpp"
#include "sim/event_queue.hpp"
#include "sim/registry.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cni
{

class Interconnect;
class JsonWriter;
class McEncoder;

/** Where the node's NI is attached (the paper's three placements). */
enum class NiPlacement
{
    CacheBus,
    MemoryBus,
    IoBus,
};

const char *toString(NiPlacement p);

/**
 * Geometry of a directory-based backend — how much protocol state each
 * home keeps and how data moves on a remote miss. Plain data carried in
 * MachineSpec (builder dirEntries()/dirAssoc()/dirHops(), CLI --dir-*),
 * consumed only by backends whose traits set `directoryGeometry`.
 */
struct DirParams
{
    /**
     * Per-home directory entry cap. 0 (default) keeps the exact full
     * map — every cached block tracked, never a recall. A positive cap
     * makes the directory sparse: entries are a set-associative cache,
     * and allocating into a full set forces an eviction — the home
     * recalls the victim block (invalidates sharers, pulls dirty owner
     * data back to memory) before reusing the entry.
     */
    int entries = 0;

    /** Set associativity of a sparse directory (entries / assoc sets). */
    int assoc = 4;

    /**
     * Remote-miss data path. 4 (default): strict home-centric — the
     * owner's data returns to the home, which grants the requester
     * (requester -> home -> owner -> home -> requester). 3: the home
     * forwards the request to the owner, which sends the block straight
     * to the requester while acking the home in parallel — one fabric
     * traversal less on every cache-to-cache miss.
     */
    int hops = 4;

    /**
     * Adaptive update/invalidate backends only ("hybrid", traits
     * `adaptiveUpdate`): a sharer that receives this many consecutive
     * updates without reading the line self-invalidates, flipping the
     * line from update mode to invalidate mode for that sharer. Reads
     * reset the per-line counter. Pure update backends ("dragon") never
     * flip regardless of this knob.
     */
    int updThreshold = 4;
};

/**
 * The coherent agents one node attaches to its domain: the processor
 * cache, the main-memory home, and the NI device. Backends that model
 * broadcast media may attach more (the I/O bridge); this is the count
 * the builder validates against a snooping backend's electrical cap.
 */
constexpr int kCohAgentsPerNode = 3;

/**
 * One node's view of the machine's coherence protocol.
 */
class CoherenceDomain
{
  public:
    using Done = std::function<void(const SnoopResult &)>;

    explicit CoherenceDomain(NiPlacement p) : placement_(p) {}
    virtual ~CoherenceDomain() = default;

    /** Backend name as registered ("snoop", "directory", ...). */
    virtual const char *kind() const = 0;

    NiPlacement placement() const { return placement_; }

    // Agent attachment (by role) -------------------------------------------

    /** Attach the processor cache; returns its requester id. */
    virtual int attachCache(BusAgent *agent) = 0;

    /** Attach the main-memory home agent. */
    virtual int attachHome(BusAgent *agent) = 0;

    /** Attach the NI device; returns its requester id. */
    virtual int attachNi(BusAgent *agent) = 0;

    // Transaction issue -----------------------------------------------------

    /**
     * Issue a processor-initiated transaction (uncached register
     * accesses, coherent reads/upgrades/writebacks). `done` runs when
     * the requester may proceed.
     */
    virtual void procIssue(const BusTxn &txn, Done done) = 0;

    /**
     * Issue an NI-device-initiated transaction (coherent pulls,
     * upgrades, writebacks of queue blocks).
     */
    virtual void deviceIssue(const BusTxn &txn, Done done) = 0;

    /**
     * Issue `txn` from the side its initiator names: procIssue for the
     * processor and its cache and store buffer, deviceIssue for the NI
     * device and its caches.
     */
    void
    issue(const BusTxn &txn, Done done)
    {
        if (txn.initiator == Initiator::Device)
            deviceIssue(txn, std::move(done));
        else
            procIssue(txn, std::move(done));
    }

    // Occupancy + stats -----------------------------------------------------

    /**
     * Cycles the node's memory path was occupied by coherence traffic —
     * the Section 5.2 comparison metric (memory-bus hold time under
     * snooping; memory-port reservation time under a directory).
     */
    virtual Tick memBusOccupiedCycles() const = 0;

    /** Merge every per-backend StatSet into a machine aggregate. */
    virtual void mergeStats(StatSet &agg) const = 0;

    /**
     * Backend-specific keys for this node's entry in the report's
     * "coherence" section. Only called when the backend's traits set
     * `reportSection` (the snoop default contributes nothing, keeping
     * pre-registry reports byte-identical).
     */
    virtual void reportCoherence(JsonWriter &w) const;

    /** Is this address owned by the NI (register or device-homed space)? */
    static bool isNiAddr(Addr a);

    /**
     * The bus that carries a processor's NI register access as one
     * transaction, or nullptr when the access takes more (a bridge
     * crossing, a protocol exchange). Only on such a bus may a quiet
     * status poll be fast-forwarded (NetIface::quietPollCycles).
     */
    virtual SnoopBus *niRegisterBus() { return nullptr; }

    // Model-checking seam (src/mc) ------------------------------------------
    //
    // cnimc explores the real backends, so each one exposes its
    // protocol-visible state behind four hooks: an opaque copy for
    // backtracking (snapshot/restore), a canonical byte encoding for
    // state-hash compression (mcEncode / mcEncodeWire for in-flight
    // message blobs), and the quiescence predicates the no-stuck-state
    // invariant checks. The defaults describe a stateless domain — a
    // backend with protocol state overrides all of them together.

    /** Copy of all protocol-visible state (null = nothing to save). */
    virtual std::shared_ptr<const void> mcSnapshot() const;

    /** Restore a snapshot taken from this same instance. */
    virtual void mcRestore(const std::shared_ptr<const void> &snap);

    /**
     * Append this domain's protocol state to a canonical fingerprint.
     * Ticks, stats, and port accounting are excluded: two states that
     * can only diverge in timing must collide.
     */
    virtual void mcEncode(McEncoder &enc) const;

    /**
     * Canonically re-encode the payload of an in-flight protocol
     * message the checker holds (Interconnect::setHoldHook).
     */
    virtual void mcEncodeWire(McEncoder &enc, const std::uint8_t *blob,
                              std::size_t len) const;

    /**
     * With no messages in flight and no requester transaction pending,
     * is the domain fully idle (no busy entries, no parked requests)?
     * On false, `why` (if non-null) names the stuck structure.
     */
    virtual bool mcQuiescent(std::string *why) const;

    /** Deepest park/waiting queue right now (bounded-park invariant). */
    virtual std::size_t mcParkDepth() const;

  protected:
    NiPlacement placement_;
};

/**
 * Awaitable bus transaction: `co_await TxnAwaiter(coh, txn)` issues
 * `txn` (CoherenceDomain::issue) and resumes with its SnoopResult. The
 * transaction and its result live in the awaiter, in the caller's
 * frame; the domain gets a two-word [this, handle] completion, which
 * std::function stores inline, so issuing allocates nothing. A domain
 * may complete inside the issue call.
 */
class TxnAwaiter
{
  public:
    TxnAwaiter(CoherenceDomain &coh, const BusTxn &txn)
        : coh_(coh), txn_(txn)
    {
    }

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        coh_.issue(txn_, [this, h](const SnoopResult &r) {
            res_ = r;
            h.resume();
        });
    }

    SnoopResult await_resume() const noexcept { return res_; }

  private:
    CoherenceDomain &coh_;
    BusTxn txn_;
    SnoopResult res_;
};

/**
 * Capabilities and constraints of one coherence backend, consulted by
 * the machine builder when validating a description.
 */
struct CoherenceTraits
{
    bool snooping = true; //!< broadcast medium: every agent sees every txn
    /**
     * For snooping backends: the electrical cap on agents sharing one
     * bus (0 = uncapped). The builder checks the node's attachment plan
     * (kCohAgentsPerNode) against it — the constraint that motivates
     * directory protocols in the first place.
     */
    int maxBusAgents = 0;
    /**
     * Protocol messages ride the Interconnect (directory GetS/GetM/Inv
     * traffic). Requires a routed fabric (NetTraits::routed) so the
     * messages have per-hop timing, and participates in the sharded
     * kernel's minLatency() lookahead for free.
     */
    bool overFabric = false;
    bool supportsIoPlacement = true;    //!< can bridge to a coherent I/O bus
    bool supportsCachePlacement = true; //!< can serve a processor-local bus
    bool supportsSnarfing = true; //!< writeback snarfing (a snooping trick)
    /**
     * Consumes the DirParams geometry knobs (sparse entry cap,
     * associativity, 3- vs 4-hop data path). The builder rejects
     * non-default --dir-* settings on backends without it — a snooping
     * bus has no directory for them to configure.
     */
    bool directoryGeometry = false;
    /**
     * Contributes a "coherence" section to Machine::report(). The snoop
     * backend leaves this false: its stats already flow through the bus
     * StatSets, and legacy reports must stay byte-identical.
     */
    bool reportSection = false;
    /**
     * Writes to shared lines push word updates to sharers instead of
     * invalidating them (dragon/hybrid). Requester caches must enable
     * their update-install path (Cache::setUpdateThreshold).
     */
    bool updateProtocol = false;
    /**
     * The backend consumes DirParams::updThreshold to adapt per line
     * between update and invalidate. The builder rejects a non-default
     * --hybrid-threshold on backends without it.
     */
    bool adaptiveUpdate = false;
};

/** Everything a factory needs to construct one node's domain. */
struct CohBuildContext
{
    EventQueue &eq;     //!< the node's queue (shard or global)
    NodeId node;
    int numNodes;
    NiPlacement placement;
    Interconnect &net;  //!< fabric for overFabric backends
    std::string name;   //!< instance name, e.g. "node3"
    DirParams dir{};    //!< directory geometry (directoryGeometry traits)
};

/**
 * Name-keyed factory registry for coherence backends — the shared
 * Registry template (sim/registry.hpp), so out-of-tree protocols plug
 * in without touching core code:
 *
 *   namespace { const CoherenceRegistrar reg("myproto",
 *       CoherenceTraits{...},
 *       [](const CohBuildContext &c) { return std::make_unique<My>(...); });
 *   }
 */
class CoherenceRegistry
    : public Registry<CoherenceDomain, CoherenceTraits,
                      const CohBuildContext &>
{
  public:
    CoherenceRegistry()
        : Registry("coherence backend", "registered backends")
    {
    }

    /** The process-wide registry (builtin backends are ensured here). */
    static CoherenceRegistry &instance();
};

/** Registers a backend at static-initialization time (out-of-tree). */
using CoherenceRegistrar = Registrar<CoherenceRegistry>;

namespace detail
{
// Self-registration hooks of the builtin backends, defined next to each
// implementation (bus/fabric.cpp, coh/directory.cpp). Called once from
// CoherenceRegistry::instance() so a static-library link never drops
// them.
void registerSnoopDomain(CoherenceRegistry &r);
void registerDirectoryDomain(CoherenceRegistry &r);
void registerDragonDomain(CoherenceRegistry &r);
void registerHybridDomain(CoherenceRegistry &r);
} // namespace detail

} // namespace cni

#endif // CNI_COH_DOMAIN_HPP
