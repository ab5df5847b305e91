/**
 * @file
 * The pluggable interconnect fabric (Section 4.1, generalized).
 *
 * The paper models the network as a single fixed-latency pipe; this
 * layer keeps that model (IdealNet, the default — see net/ideal.hpp) but
 * makes the fabric an abstract Interconnect chosen by name through the
 * NetRegistry, with topology-aware alternatives (MeshNet, CrossbarNet)
 * for congestion and scalability studies the paper could not run.
 *
 * What every model shares — implemented here in the base class:
 *  - end-point flow control: a hardware sliding window of
 *    NetParams::window unacknowledged messages per (source, destination)
 *    pair; the receiving NI acknowledges a message when it accepts it
 *    into its receive queue, and the ack returns across the fabric
 *    before the window slot frees;
 *  - per-destination in-order arrival: a refused head-of-line message
 *    blocks everything behind it ("backs up into the network") and is
 *    retried every NetParams::retryInterval cycles;
 *  - injection/delivery/retry statistics.
 *
 * What the models differ in — the virtual hooks:
 *  - routeDelay(): cycles from injection to arrival, including any
 *    topology-dependent queuing (per-link occupancy in MeshNet,
 *    endpoint-port occupancy in CrossbarNet);
 *  - ackDelay(): cycles for the acknowledgment's return trip;
 *  - reportTopology(): model-specific JSON (per-link occupancy, dims).
 */

#ifndef CNI_NET_NETWORK_HPP
#define CNI_NET_NETWORK_HPP

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/params.hpp"
#include "net/payload.hpp"
#include "sim/event_queue.hpp"
#include "sim/registry.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/types.hpp"

namespace cni
{

class JsonWriter;

/**
 * One fixed-size (256-byte) network message: a 12-byte header (handler id,
 * payload length, fragmentation info, context) plus up to 244 payload
 * bytes, stored inline (no heap traffic on the simulation's hottest path).
 */
struct NetMsg
{
    /**
     * Virtual network a message travels on. Data messages share the
     * sliding-window flow control and per-destination in-order arrival
     * queues; coherence messages (directory GetS/GetM/Inv/... traffic)
     * ride a dedicated lane with neither — their receivers always
     * accept, which keeps the protocol deadlock-free even when the NI
     * lane is backed up, exactly like a real machine's separate
     * request/response virtual networks.
     */
    enum class Lane : std::uint8_t
    {
        Data,
        Coherence,
    };

    NodeId src = -1;
    NodeId dst = -1;
    std::uint32_t handler = 0;   //!< active-message handler index
    std::uint16_t fragIndex = 0; //!< fragment number within a user message
    std::uint16_t fragCount = 1; //!< total fragments of the user message
    std::uint8_t ctx = 0;        //!< receiving process / queue context
    Lane lane = Lane::Data;      //!< virtual network (see above)
    std::uint32_t seq = 0;       //!< sender sequence (fragment reassembly)
    std::uint64_t userTag = 0;   //!< opaque user word (timestamps in tests)
    MsgPayload payload;          //!< <= kNetworkPayloadBytes, inline

    std::size_t
    payloadBytes() const
    {
        return payload.size();
    }

    /** Bytes this message occupies on the wire (header + payload). */
    std::size_t wireBytes() const { return kNetworkHeaderBytes + payload.size(); }
};

/** Implemented by every NI device: the network-side delivery port. */
class NiPort
{
  public:
    virtual ~NiPort() = default;

    /**
     * A message reached this node. Return true to accept it (the ack is
     * then sent); returning false leaves the message blocking the channel
     * and the fabric retries later.
     */
    virtual bool netDeliver(const NetMsg &msg) = 0;
};

/**
 * A serially reserved fabric resource (a mesh link, a crossbar port):
 * messages occupy it back-to-back in reservation order, and its
 * occupancy/wait bookkeeping feeds the congestion reports.
 */
struct SerialResource
{
    Tick nextFree = 0;   //!< earliest cycle a new reservation may start
    Tick busyCycles = 0; //!< total occupied cycles
    Tick waitCycles = 0; //!< total cycles reservations queued for it
    std::uint64_t uses = 0;

    /**
     * Reserve `ser` cycles starting no earlier than `at`. Returns the
     * actual start (>= at); `start - at` is the queuing wait.
     */
    Tick
    reserve(Tick at, Tick ser)
    {
        const Tick start = std::max(at, nextFree);
        waitCycles += start - at;
        busyCycles += ser;
        nextFree = start + ser;
        ++uses;
        return start;
    }
};

/**
 * Abstract interconnect. Owns the sliding-window and in-order arrival
 * machinery; concrete models supply the timing (see file comment).
 */
class Interconnect
{
  public:
    Interconnect(EventQueue &eq, int numNodes, NetParams params);
    virtual ~Interconnect() = default;

    /** Model name in NetRegistry ("ideal", "mesh", ...). */
    virtual const char *kind() const = 0;

    int numNodes() const { return numNodes_; }
    const NetParams &params() const { return params_; }

    /**
     * Conservative lower bound, in cycles, on every cross-node
     * interaction this fabric can produce (message deliveries and
     * acknowledgment returns). The sharded kernel uses it as the
     * synchronization window width: nothing a node does in a window can
     * reach another node within the same window.
     */
    virtual Tick minLatency() const { return params_.latency; }

    /**
     * Switch to sharded operation: node-side work (injection
     * bookkeeping, arrival pumping) runs on per-node shard queues, and
     * cross-node effects are posted through `host` for deterministic
     * merging at window barriers. Must be called before any traffic;
     * recreates the per-source window channels on the shard queues.
     */
    void bindShards(ShardHost *host);

    bool sharded() const { return shards_ != nullptr; }

    /**
     * Fold the per-node counters accumulated during sharded execution
     * into stats(). Safe to call repeatedly (delta-folding); no-op in
     * serial mode. The machine calls this after every run.
     */
    void foldShardCounters();

    void attach(NodeId node, NiPort *port);

    /**
     * Attach the coherence-lane receiver for `node` (a directory-backed
     * CoherenceDomain). Lane::Coherence messages deliver here, bypassing
     * the data lane's window flow control and arrival queues; the port
     * must always accept.
     */
    void attachCoherence(NodeId node, NiPort *port);

    /**
     * Serial kernel: the first tick at which the fabric can hand `dst`'s
     * NI a data message — its earliest scheduled data-lane arrival or
     * refused-arrival retry, and no later than now + minLatency(), the
     * soonest a message not yet injected can arrive. Idle-poll
     * fast-forward (Endpoint::pollUntil) may skip a quiet receiver's
     * polls up to it. Coherence-lane traffic is not tracked: backends
     * that route their protocol over the fabric never fast-forward.
     */
    Tick dataHorizon(NodeId dst) const;

    /** May `src` inject another message toward `dst` right now? */
    bool canInject(NodeId src, NodeId dst) const;

    /**
     * Inject a message (for Lane::Data, window space must be
     * available). Delivery is attempted routeDelay() cycles later;
     * coherence-lane messages share the same routing/occupancy model, so
     * minLatency() bounds them too.
     */
    void inject(NetMsg msg);

    /**
     * Model checking (src/mc), serial kernel only. While a hold hook is
     * installed, every coherence-lane message inject() would schedule
     * is handed to it instead, with its routed arrival tick, and stays
     * in flight until the hook's owner passes it to deliverHeld().
     * Coherence backends hand their node-local protocol hops over too,
     * as src == dst messages. `label` names the message in traces.
     */
    using HoldHook =
        std::function<void(NetMsg msg, Tick arrival, const char *label)>;
    void setHoldHook(HoldHook hook) { hold_ = std::move(hook); }
    const HoldHook &holdHook() const { return hold_; }

    /** Hand a held coherence-lane message to its receiver, now. */
    void deliverHeld(NetMsg msg);

    /**
     * Wakeup channel notified whenever window space toward any
     * destination frees for `src` (senders blocked on the window wait
     * here).
     */
    WaitChannel &windowChannel(NodeId src) { return *windowCh_[src]; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    /** Messages injected so far (all nodes). */
    std::uint64_t injected() const { return stats_.counter("injected"); }

    /**
     * Model-specific keys written into the open "net" object of
     * Machine::report() (per-link occupancy, topology dims, ...).
     */
    virtual void reportTopology(JsonWriter &w) const;

  protected:
    /**
     * Fabric-serial phase capability (see sim/thread_annotations.hpp):
     * held when exactly one thread can be routing — the whole run in
     * serial mode, the window-barrier merge in sharded mode. Everything
     * that touches fabric-wide SerialResources (routeDelay and the
     * models' link/port tables behind it) requires it, so a model that
     * reserves a link from shard context fails the clang thread-safety
     * build instead of racing at runtime.
     */
    RoleCap barrier_;

    /**
     * Cycles from an injection at tick `now` to arrival at msg.dst.
     * Called once per message — at injection time in serial mode, at the
     * window barrier (serially, in canonical order) in sharded mode; a
     * model reserves whatever resources the message occupies (links,
     * ports) and accounts contention here. Must return >= minLatency()
     * for src != dst.
     */
    virtual Tick routeDelay(const NetMsg &msg, Tick now)
        CNI_REQUIRES(barrier_) = 0;

    /**
     * Cycles for the acknowledgment's trip from `dst` back to `src`.
     * Deliberately NOT a barrier_ operation: acks are priced on the
     * destination's shard during the parallel phase (pumpArrivals), so
     * overrides must stay pure — params and topology math only, no
     * SerialResource reservations.
     */
    virtual Tick
    ackDelay(NodeId src, NodeId dst)
    {
        (void)src;
        (void)dst;
        return params_.latency;
    }

    /** Cycles `msg` occupies a link/port at NetParams::linkBw. */
    Tick
    serializationCycles(const NetMsg &msg) const
    {
        return (msg.wireBytes() + params_.linkBw - 1) / params_.linkBw;
    }

    EventQueue &eq_;
    NetParams params_;
    StatSet stats_;
    // Pre-bound handles for the per-message / per-hop counters
    // (sim/stats.hpp) — the string-keyed incr() is too slow for paths
    // that run once per simulated network event.
    StatSet::Counter cInjected_;
    StatSet::Counter cPayloadBytes_;
    StatSet::Counter cDelivered_;
    StatSet::Counter cDeliveryRetries_;
    StatSet::Counter cRetryWaitCycles_;

  private:
    void deliverArrival(NetMsg msg);
    void pumpArrivals(NodeId dst);

    /**
     * Serial mode: a data-lane event that can hand `dst` a message (an
     * arrival or a retry) was scheduled for `when` / is running now.
     */
    void ingressScheduled(NodeId dst, Tick when);
    void ingressRunning(NodeId dst);

    /** Barrier-phase half of a sharded injection (serial, canonical). */
    void routeFromBarrier(NetMsg msg, Tick injectTick, Tick notBefore)
        CNI_REQUIRES(barrier_);

    /** The queue driving node-local work for `node`. */
    EventQueue &nodeQueue(NodeId node);

    /**
     * Counters a node's shard increments during parallel execution.
     * Each entry is only ever touched by its owning shard (cache-line
     * aligned so neighbours do not false-share) and folded into stats_
     * by the coordinator between runs.
     */
    struct alignas(64) NodeCounters
    {
        std::uint64_t injected = 0;
        std::uint64_t payloadBytes = 0;
        std::uint64_t delivered = 0;
        std::uint64_t deliveryRetries = 0;
        std::uint64_t retryWaitCycles = 0;
    };

    ShardHost *shards_ = nullptr;
    std::vector<NodeCounters> perNode_;
    /// Last-folded snapshot; only the coordinator's serial phase walks
    /// it (foldShardCounters, between runs).
    std::vector<NodeCounters> folded_ CNI_GUARDED_BY(barrier_);

    int numNodes_;
    std::vector<NiPort *> ports_;
    std::vector<NiPort *> cohPorts_; //!< coherence-lane receivers
    HoldHook hold_;                  //!< see setHoldHook()
    std::vector<std::unique_ptr<WaitChannel>> windowCh_;
    /// In-flight (unacknowledged) messages per [src][dst]. Written by
    /// the source's shard only: inject() runs on it, and the
    /// ack-completion event is posted back to it.
    std::vector<std::vector<int>> inFlight_;
    /// Per-destination ingress: arrivals deliver in order, and a refused
    /// head blocks everything behind it — messages back up into the
    /// fabric and their (ack-gated) window slots stay occupied, which is
    /// what throttles senders toward a congested receiver (Section 2.3's
    /// motivation for large queues).
    std::vector<std::deque<NetMsg>> arrivalQ_;
    /// char, not bool: each flag is written by its destination's shard,
    /// and vector<bool>'s packed bits would make distinct destinations
    /// share words — a cross-shard data race.
    std::vector<char> pumping_;
    /// Serial mode: per destination, a min-heap of the ticks of its
    /// scheduled data-lane arrivals and retries (dataHorizon()). The
    /// serial kernel runs events in tick order, so the event being run
    /// always holds its destination's minimum.
    std::vector<std::vector<Tick>> ingressTicks_;
};

/**
 * Capabilities of one interconnect model, consulted by the machine
 * builder (a directory-backed coherence domain needs a routed fabric).
 */
struct NetTraits
{
    /**
     * Point-to-point routed fabric with per-hop/per-port timing (mesh,
     * torus, xbar) — as opposed to the paper's idealized fixed-latency
     * pipe, which has no notion of a path for protocol messages to
     * occupy.
     */
    bool routed = false;
};

/** The interconnect family's table (net/network.cpp holds its rows). */
class NetRegistry : public Registry<Interconnect, NetTraits, EventQueue &,
                                    int, const NetParams &>
{
  public:
    static const NetRegistry &instance();

  private:
    using Registry::Registry;
};

} // namespace cni

#endif // CNI_NET_NETWORK_HPP
