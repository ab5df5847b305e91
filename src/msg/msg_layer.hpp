/**
 * @file
 * The Tempest-like user-level messaging layer (Section 4.1).
 *
 * Provides active messages over any NetIface: user messages are broken
 * into 256-byte network messages (12-byte header + up to 244 payload
 * bytes), reassembled at the receiver, and dispatched to registered
 * handler coroutines from poll().
 *
 * Software flow control follows the paper: when a send blocks (NI queue
 * or window full), the layer extracts incoming messages from the NI and
 * buffers them in user space to avoid fetch deadlock — except on CNI16Qm,
 * whose device overflows to main memory in hardware, so the processor
 * never has to intervene.
 */

#ifndef CNI_MSG_MSG_LAYER_HPP
#define CNI_MSG_MSG_LAYER_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "ni/net_iface.hpp"
#include "proc/proc.hpp"
#include "sim/stats.hpp"

namespace cni
{

/** A fully reassembled user-level message. */
struct UserMsg
{
    NodeId src = -1;
    std::uint32_t handler = 0;
    std::uint64_t userTag = 0;
    std::vector<std::uint8_t> payload;
};

/** Cycles charged for handler demultiplex + invocation. */
constexpr Tick kDispatchCycles = 8;

/** Cycles of receive-loop bookkeeping after each empty poll. */
constexpr Tick kIdlePollCycles = 4;

/**
 * Cycles a blocked send waits between attempts when there is nothing to
 * drain (or the device buffers receive overflow in hardware).
 */
constexpr Tick kBlockedSendBackoff = 8;

/**
 * Scratch region used as the user-level receive buffer target; coloured
 * to processor-cache lines 2560..4095 so software buffering does not
 * evict the cachable queues (see the layout note in ni/params.hpp).
 */
constexpr Addr kUserBufBase = kMemBase + 0x0602'8000;
constexpr Addr kUserBufSize = 0x2'0000;

class MsgLayer
{
  public:
    using Handler = std::function<CoTask<void>(const UserMsg &)>;

    MsgLayer(Proc &p, NetIface &ni, int ctx = 0);

    Proc &proc() { return p_; }
    NetIface &ni() { return ni_; }
    NodeId nodeId() const { return p_.id(); }
    int context() const { return ctx_; }

    /** Register the coroutine invoked for messages carrying `id`. */
    void registerHandler(std::uint32_t id, Handler h);

    /**
     * Send a user message of `bytes` bytes. Fragments as needed and
     * applies software flow control while blocked.
     */
    CoTask<void> send(NodeId dst, std::uint32_t handler, const void *payload,
                      std::size_t bytes, std::uint64_t userTag = 0);

    /** Send with no payload bytes (pure control message). */
    CoTask<void>
    send(NodeId dst, std::uint32_t handler, std::uint64_t userTag = 0)
    {
        return send(dst, handler, nullptr, 0, userTag);
    }

    /**
     * Poll for incoming messages and dispatch up to `maxDispatch`
     * handlers. Returns the number of *user messages* dispatched.
     */
    CoTask<int> poll(int maxDispatch = 8);

    /**
     * Poll (dispatching handlers) until `pred()` holds, waiting
     * kIdlePollCycles after each empty poll. Every poll runs, so `pred`
     * may read any state, including state other nodes change.
     */
    CoTask<void> pollEachUntil(std::function<bool()> pred);

    /**
     * pollEachUntil with the same simulated timing and statistics, but
     * a quiet spin may be fast-forwarded.
     *
     * Contract: only this node's handlers or its program may make
     * `pred` true. pollUntil relies on it to fast-forward a quiet spin:
     * when the layer is armed (setPollHorizon), nothing is buffered in
     * user space and the NI proves its next polls can only come up
     * empty in the same cycles (NetIface::quietPollCycles: a CNIiQ head
     * slot that hits with its valid bit clear, or an NI2w/CNI4 status
     * load alone on its bus with no device work that could set the
     * ready bit or take the bus), one wait replaces every poll that
     * would complete before the horizon, charging the same counters
     * those polls would have. Where the wait lands, the next poll would
     * start; the layer decides there again, with no real poll between.
     * A predicate that turns true during such a stretch is a broken
     * contract and panics; wait on state other nodes change with
     * pollEachUntil instead.
     */
    CoTask<void> pollUntil(std::function<bool()> pred);

    /**
     * Arm idle-poll fast-forward. `horizon()` returns the first tick at
     * which anything outside this node's program can change what its
     * receive polls see, or a tick <= now when skipping is not allowed
     * right now. Machine arms the layers where it can prove this; an
     * unarmed layer runs every poll.
     */
    void
    setPollHorizon(std::function<Tick()> horizon)
    {
        horizon_ = std::move(horizon);
    }

    /** Polls pollUntil fast-forwarded over (charged, never run). */
    std::uint64_t pollsElided() const { return pollsElided_; }

    /**
     * Kernel events those skips replaced: pollEachUntil would have
     * executed this many more.
     */
    std::uint64_t eventsElided() const { return eventsElided_; }

    /** Is the layer inside a fast-forwarded stretch right now? */
    bool fastForwarding() const { return p_.eq().now() < elidedUntil_; }

    /**
     * Does a blocked send drain incoming messages into user-space
     * buffers? Everywhere except on hardware-overflow NIs (CNI16Qm).
     */
    bool softwareDrains() const { return !ni_.hardwareBuffersOverflow(); }

    StatSet &stats() { return stats_; }

  private:
    CoTask<bool> nextNetMsg(NetMsg &out);
    CoTask<void> drainWhileBlocked();
    CoTask<bool> assemble(const NetMsg &m, UserMsg &done);
    Addr nextUserBuf(std::size_t bytes);
    Tick skipQuietPolls(Tick first);

    Proc &p_;
    NetIface &ni_;
    int ctx_;
    std::unordered_map<std::uint32_t, Handler> handlers_;
    std::deque<NetMsg> softBuf_; //!< user-space buffered network messages

    /** A user message being reassembled from its fragments. */
    struct Partial
    {
        UserMsg msg;
        int fragsLeft = 0;
    };
    /// Keyed by (source, sender sequence).
    std::map<std::pair<NodeId, std::uint32_t>, Partial> partial_;
    std::uint32_t sendSeq_ = 0;
    Addr userBufCursor_ = 0;
    std::function<Tick()> horizon_; //!< empty: never fast-forward
    std::uint64_t pollsElided_ = 0;
    std::uint64_t eventsElided_ = 0;
    Tick elidedUntil_ = 0; //!< end of the current fast-forward
    StatSet stats_;
    StatSet::Counter cUserSends_;
    StatSet::Counter cUserSendBytes_;
    StatSet::Counter cSendBlocks_;
    StatSet::Counter cSoftwareBuffered_;
    StatSet::Counter cDispatches_;
};

} // namespace cni

#endif // CNI_MSG_MSG_LAYER_HPP
