#include "net/network.hpp"

#include "net/ideal.hpp"
#include "net/mesh.hpp"
#include "net/xbar.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"

#include <utility>

namespace cni
{

Interconnect::Interconnect(EventQueue &eq, int numNodes, NetParams params)
    : eq_(eq), params_(std::move(params)), stats_("network"),
      cInjected_(stats_, "injected"),
      cPayloadBytes_(stats_, "payload_bytes"),
      cDelivered_(stats_, "delivered"),
      cDeliveryRetries_(stats_, "delivery_retries"),
      cRetryWaitCycles_(stats_, "retry_wait_cycles"),
      numNodes_(numNodes), ports_(numNodes, nullptr),
      cohPorts_(numNodes, nullptr),
      inFlight_(numNodes, std::vector<int>(numNodes, 0)),
      arrivalQ_(numNodes), pumping_(numNodes, false),
      ingressTicks_(numNodes)
{
    cni_assert(numNodes_ >= 1);
    cni_assert(params_.window >= 1);
    windowCh_.reserve(numNodes);
    for (int i = 0; i < numNodes; ++i)
        windowCh_.push_back(std::make_unique<WaitChannel>(eq));
}

void
Interconnect::bindShards(ShardHost *host)
{
    cni_assert(host != nullptr);
    cni_assert(stats_.counter("injected") == 0); // before any traffic
    shards_ = host;
    perNode_.assign(numNodes_, NodeCounters{});
    folded_.assign(numNodes_, NodeCounters{});
    // Window-space waiters suspend on their own node's shard, so the
    // wakeup events must be scheduled there too.
    windowCh_.clear();
    for (int i = 0; i < numNodes_; ++i)
        windowCh_.push_back(
            std::make_unique<WaitChannel>(host->shardQueue(i)));
}

void
Interconnect::foldShardCounters()
{
    if (!shards_)
        return;
    barrier_.assertHeld(); // coordinator, between runs: shards quiescent
    for (NodeId n = 0; n < numNodes_; ++n) {
        const NodeCounters &cur = perNode_[n];
        NodeCounters &last = folded_[n];
        cInjected_.incr(cur.injected - last.injected);
        cPayloadBytes_.incr(cur.payloadBytes - last.payloadBytes);
        cDelivered_.incr(cur.delivered - last.delivered);
        cDeliveryRetries_.incr(cur.deliveryRetries - last.deliveryRetries);
        cRetryWaitCycles_.incr(cur.retryWaitCycles - last.retryWaitCycles);
        last = cur;
    }
}

EventQueue &
Interconnect::nodeQueue(NodeId node)
{
    return shards_ ? shards_->shardQueue(node) : eq_;
}

void
Interconnect::attach(NodeId node, NiPort *port)
{
    cni_assert(node >= 0 && node < numNodes_);
    cni_assert(ports_[node] == nullptr);
    ports_[node] = port;
}

void
Interconnect::attachCoherence(NodeId node, NiPort *port)
{
    cni_assert(node >= 0 && node < numNodes_);
    cni_assert(cohPorts_[node] == nullptr);
    cohPorts_[node] = port;
}

Tick
Interconnect::dataHorizon(NodeId dst) const
{
    cni_assert(!shards_);
    const std::vector<Tick> &pending = ingressTicks_[dst];
    const Tick soonest = eq_.now() + minLatency();
    return pending.empty() ? soonest : std::min(soonest, pending.front());
}

void
Interconnect::ingressScheduled(NodeId dst, Tick when)
{
    std::vector<Tick> &h = ingressTicks_[dst];
    h.push_back(when);
    std::push_heap(h.begin(), h.end(), std::greater<>{});
}

void
Interconnect::ingressRunning(NodeId dst)
{
    std::vector<Tick> &h = ingressTicks_[dst];
    cni_assert(!h.empty());
    std::pop_heap(h.begin(), h.end(), std::greater<>{});
    h.pop_back();
}

bool
Interconnect::canInject(NodeId src, NodeId dst) const
{
    return inFlight_[src][dst] < params_.window;
}

void
Interconnect::inject(NetMsg msg)
{
    cni_assert(msg.src >= 0 && msg.src < numNodes_);
    cni_assert(msg.dst >= 0 && msg.dst < numNodes_);
    cni_assert(msg.payload.size() <= kNetworkPayloadBytes);

    if (msg.lane == NetMsg::Lane::Coherence) {
        // Coherence lane: no sliding window, no ack — protocol messages
        // must never be throttled by data traffic (deadlock freedom).
        // They still pay the model's full routing/occupancy cost, which
        // is >= minLatency(), so the sharded kernel's lookahead holds;
        // in sharded mode the route is resolved at the barrier like any
        // other message. Stats stay with the issuing CoherenceDomain so
        // "injected"/"delivered" keep meaning user messages.
        if (shards_) {
            const Tick at = shards_->shardNow(msg.src);
            shards_->postBarrier(
                msg.src, [this, at, m = std::move(msg)](Tick wEnd) mutable {
                    barrier_.assertHeld(); // runs in the barrier merge
                    routeFromBarrier(std::move(m), at, wEnd);
                });
            return;
        }
        barrier_.assertHeld(); // serial mode: one thread owns the fabric
        const Tick delay = routeDelay(msg, eq_.now());
        if (hold_) {
            // Model checking: the in-flight message is the checker's to
            // deliver. Every model's routeDelay is arrival-monotonic per
            // (src, dst) pair (links and ports are reserved in injection
            // order), so delivering each pair in FIFO order is exactly
            // the physical guarantee.
            hold_(std::move(msg), eq_.now() + delay, "coh");
            return;
        }
        eq_.scheduleIn(delay, [this, m = std::move(msg)]() mutable {
            deliverArrival(std::move(m));
        });
        return;
    }

    cni_assert(canInject(msg.src, msg.dst));

    ++inFlight_[msg.src][msg.dst];

    if (shards_) {
        // Sharded: route timing touches fabric-wide resources (links,
        // ports), so it is deferred to the serial barrier phase where
        // all of a window's injections are processed in canonical order.
        NodeCounters &c = perNode_[msg.src];
        ++c.injected;
        c.payloadBytes += msg.payloadBytes();
        const Tick at = shards_->shardNow(msg.src);
        shards_->postBarrier(
            msg.src, [this, at, m = std::move(msg)](Tick wEnd) mutable {
                barrier_.assertHeld(); // runs in the barrier merge
                routeFromBarrier(std::move(m), at, wEnd);
            });
        return;
    }

    cInjected_.incr();
    cPayloadBytes_.incr(msg.payloadBytes());
    barrier_.assertHeld(); // serial mode: one thread owns the fabric
    const Tick delay = routeDelay(msg, eq_.now());
    ingressScheduled(msg.dst, eq_.now() + delay);
    eq_.scheduleIn(delay, [this, m = std::move(msg)]() mutable {
        ingressRunning(m.dst);
        deliverArrival(std::move(m));
    });
}

void
Interconnect::routeFromBarrier(NetMsg msg, Tick injectTick, Tick notBefore)
{
    // Every model charges at least minLatency() (the kernel's
    // lookahead), so an arrival can never land inside the window that
    // injected it.
    const Tick when = injectTick + routeDelay(msg, injectTick);
    cni_assert(when >= notBefore);
    const NodeId dst = msg.dst;
    shards_->shardQueue(dst).scheduleAt(
        when, [this, m = std::move(msg)]() mutable {
            deliverArrival(std::move(m));
        });
}

void
Interconnect::deliverHeld(NetMsg msg)
{
    cni_assert(!shards_ && msg.lane == NetMsg::Lane::Coherence);
    deliverArrival(std::move(msg));
}

void
Interconnect::deliverArrival(NetMsg msg)
{
    const NodeId dst = msg.dst;
    if (msg.lane == NetMsg::Lane::Coherence) {
        // Own lane: delivered immediately (the domain queues internally
        // and always accepts), never behind a refused data head.
        NiPort *port = cohPorts_[dst];
        cni_assert(port != nullptr);
        const bool accepted = port->netDeliver(msg);
        cni_assert(accepted);
        (void)accepted;
        return;
    }
    arrivalQ_[dst].push_back(std::move(msg));
    pumpArrivals(dst);
}

void
Interconnect::pumpArrivals(NodeId dst)
{
    if (pumping_[dst] || arrivalQ_[dst].empty())
        return;
    NiPort *port = ports_[dst];
    cni_assert(port != nullptr);
    const NetMsg &head = arrivalQ_[dst].front();
    if (!port->netDeliver(head)) {
        // Receiver congested: the head blocks the channel (and every
        // message behind it) until the NI accepts it — arrivals back up
        // into the fabric, acks stall, and the senders' windows close.
        if (shards_) {
            ++perNode_[dst].deliveryRetries;
            perNode_[dst].retryWaitCycles += params_.retryInterval;
        } else {
            cDeliveryRetries_.incr();
            cRetryWaitCycles_.incr(params_.retryInterval);
            ingressScheduled(dst, eq_.now() + params_.retryInterval);
        }
        pumping_[dst] = true;
        nodeQueue(dst).scheduleIn(params_.retryInterval, [this, dst] {
            if (!shards_)
                ingressRunning(dst);
            pumping_[dst] = false;
            pumpArrivals(dst);
        });
        return;
    }
    if (shards_)
        ++perNode_[dst].delivered;
    else
        cDelivered_.incr();
    // Acknowledgment travels back across the fabric, then the
    // sliding-window slot frees.
    const NodeId src = arrivalQ_[dst].front().src;
    arrivalQ_[dst].pop_front();
    const Tick ack = ackDelay(src, dst);
    auto complete = [this, src, dst] {
        cni_assert(inFlight_[src][dst] > 0);
        --inFlight_[src][dst];
        windowCh_[src]->notifyAll();
    };
    if (shards_) {
        // The slot and the window channel belong to the source's shard:
        // hand the completion across at the barrier.
        const Tick when = shards_->shardNow(dst) + ack;
        shards_->postBarrier(
            dst, [this, src, when, complete](Tick wEnd) {
                shards_->shardQueue(src).scheduleAt(
                    std::max(when, wEnd), complete);
            });
    } else {
        eq_.scheduleIn(ack, complete);
    }
    // Keep draining: back-to-back arrivals deliver without extra delay.
    pumpArrivals(dst);
}

void
Interconnect::reportTopology(JsonWriter &w) const
{
    (void)w;
}

// --- the table ---------------------------------------------------------------

namespace
{

/** `args`: trailing constructor arguments (MeshNet: wrap, for torus). */
template <typename Net, bool... args>
std::unique_ptr<Interconnect>
makeNet(EventQueue &eq, int n, const NetParams &p)
{
    return std::make_unique<Net>(eq, n, p, args...);
}

} // namespace

const NetRegistry &
NetRegistry::instance()
{
    // The paper's fixed-latency pipe has no routed paths, so protocol
    // traffic (directory coherence) has nothing to occupy on it.
    static const NetRegistry reg(
        "interconnect", "registered models",
        {
            {"ideal", NetTraits{.routed = false}, makeNet<IdealNet>},
            {"mesh", NetTraits{.routed = true}, makeNet<MeshNet, false>},
            {"torus", NetTraits{.routed = true}, makeNet<MeshNet, true>},
            {"xbar", NetTraits{.routed = true}, makeNet<CrossbarNet>},
        });
    return reg;
}

} // namespace cni
