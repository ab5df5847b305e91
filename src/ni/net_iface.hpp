/**
 * @file
 * Abstract network-interface device.
 *
 * Each NI is simultaneously:
 *  - a bus agent (snooped registers, and for CNIs a snooping device cache
 *    plus the home for device-homed address space);
 *  - a network port (accepts/refuses deliveries, injects with the sliding
 *    window);
 *  - a software *driver*: the processor-side protocol for sending and
 *    receiving one network message, written as coroutines against a Proc.
 *    The driver is where the five designs differ (uncached loads/stores
 *    for NI2w, CDR handshakes for CNI4, cachable-queue operations for the
 *    CNIiQ family), so the messaging layer above is NI-agnostic.
 *
 * Data plane: drivers charge every register access and cache operation at
 * full timing fidelity, while message *contents* travel through staging
 * queues inside the device model at commit points. This keeps payload
 * bytes exact without simulating per-word device datapaths.
 */

#ifndef CNI_NI_NET_IFACE_HPP
#define CNI_NI_NET_IFACE_HPP

#include <deque>
#include <memory>
#include <string>

#include "bus/bus.hpp"
#include "coh/domain.hpp"
#include "mem/node_memory.hpp"
#include "net/network.hpp"
#include "ni/params.hpp"
#include "proc/proc.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace cni
{

class NetIface : public BusAgent, public NiPort
{
  public:
    NetIface(EventQueue &eq, NodeId node, CoherenceDomain &coh,
             Interconnect &net, NodeMemory &mem, std::string name);
    ~NetIface() override = default;

    // Software driver API --------------------------------------------------

    /**
     * Attempt to hand one network message to the NI, executing the
     * device's processor-side protocol (status checks, data movement,
     * commit). Returns false when the NI cannot take the message now
     * (queue/FIFO full); the messaging layer then applies its software
     * flow control.
     */
    virtual CoTask<bool> trySend(Proc &p, NetMsg msg, int ctx) = 0;

    /**
     * Poll for one received network message. Returns false when none is
     * available. The polling cost is the NI-specific part: uncached loads
     * for NI2w/CNI4, a (usually hitting) cached load for the CQ designs.
     */
    virtual CoTask<bool> tryRecv(Proc &p, NetMsg &out, int ctx) = 0;

    /**
     * Idle-poll fast-forward (Endpoint::pollUntil): if tryRecv(p, ctx)
     * would come up empty now, take the same cycles and keep doing so
     * until the fabric hands this device another message, return the
     * cycles one such poll takes; otherwise 0. A CNIiQ poll is quiet
     * when it reads only processor-cache hits and the device holds no
     * receive work for `ctx`; an NI2w or CNI4 status poll when its
     * uncached load finds its bus to itself (quietStatusPollCycles)
     * and the device can neither set its ready bit nor master the bus.
     * Default: never quiet.
     */
    virtual Tick
    quietPollCycles(Proc &p, int ctx)
    {
        (void)p;
        (void)ctx;
        return 0;
    }

    /**
     * Charge `polls` quiet polls without running them: exactly the
     * statistics that many empty tryRecv(p, ctx) calls would have
     * counted. Returns the kernel events those calls would have run.
     * Only called right after quietPollCycles() said so.
     */
    virtual std::uint64_t
    chargeQuietPolls(Proc &p, int ctx, std::uint64_t polls)
    {
        (void)p;
        (void)ctx;
        (void)polls;
        cni_panic("%s has no quiet polls to charge", name_.c_str());
    }

    /**
     * True when the device itself buffers receive overflow (CNI16Qm), so
     * software need not drain incoming messages while blocked on a send.
     */
    virtual bool hardwareBuffersOverflow() const { return false; }

    /** Device model name, e.g. "CNI16Qm" (taxonomy label). */
    virtual const std::string &modelName() const = 0;

    // BusAgent --------------------------------------------------------------
    bool
    isHome(Addr a) const override
    {
        return CoherenceDomain::isNiAddr(a);
    }

    const std::string &agentName() const override { return name_; }

    NodeId node() const { return node_; }
    StatSet &stats() { return stats_; }
    EventQueue &eq() { return eq_; }

    /**
     * Attach this device to its node's coherence domain and start its
     * engine. Must be called exactly once, after construction completes
     * (the engine virtually dispatches into the derived class).
     */
    void
    attachToBus()
    {
        busId_ = coh_.attachNi(this);
        pollBus_ = coh_.niRegisterBus();
        attachCaches();
        // The device owns its service coroutines: they loop forever, so
        // the frames are reclaimed by ~NetIface rather than leaking.
        engines_.push_back(engineLoop());
        engines_.push_back(injectLoop());
        for (auto &e : engines_)
            e.start();
    }

  protected:
    /** Wake the device engine. */
    void kick() { kickCh_.notifyAll(); }

    /**
     * One unit of device work (a block pull, a slot write, ...). Return
     * false when idle; the engine then sleeps until the next kick().
     */
    virtual CoTask<bool> engineStep() = 0;

    /** Issue a device-initiated transaction through the domain. */
    TxnAwaiter devTxn(TxnKind kind, Addr a);

    /**
     * Wire the device's own caches to the domain (Cache::attach) under
     * the device's requester id; attachToBus calls it once that id is
     * known. Devices without caches keep the no-op.
     */
    virtual void attachCaches() {}

    /**
     * Queue a fully assembled message for injection; a dedicated device
     * coroutine serializes messages into the network as the sliding
     * window allows.
     */
    void queueForInjection(NetMsg msg);

    /** Number of messages waiting for window space. */
    std::size_t injectBacklog() const { return injectQ_.size(); }

    DelayAwaiter busyFor(Tick cycles) { return DelayAwaiter(eq_, cycles); }

    /**
     * The processor's half of quietPollCycles for a receive poll that
     * is one uncached status load: the load's occupancy when it would
     * find its bus to itself — one transaction on one bus, an empty
     * store buffer for it to drain, nobody waiting to arbitrate — else
     * 0. After an empty poll it runs inside that poll's completion,
     * which still holds the bus, so it reads the arbitration queue
     * rather than busy().
     */
    Tick quietStatusPollCycles(Proc &p) const;

    /** Charge `polls` such status loads to the processor and the bus. */
    void chargeStatusPolls(Proc &p, std::uint64_t polls);

    EventQueue &eq_;
    NodeId node_;
    CoherenceDomain &coh_;
    Interconnect &net_;
    NodeMemory &mem_;
    std::string name_;
    StatSet stats_;
    StatSet::Counter cWindowStalls_;
    StatSet::Counter cInjected_;
    int busId_ = -1; //!< our agent id on the NI bus
    /// CoherenceDomain::niRegisterBus, found once at attach.
    SnoopBus *pollBus_ = nullptr;

  private:
    CoTask<void> engineLoop();
    CoTask<void> injectLoop();

    WaitChannel kickCh_;
    WaitChannel injectCh_;
    std::deque<NetMsg> injectQ_;
    std::vector<CoTask<void>> engines_; //!< owned service coroutines
};

} // namespace cni

#endif // CNI_NI_NET_IFACE_HPP
