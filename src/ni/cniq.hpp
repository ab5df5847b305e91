/**
 * @file
 * The cachable-queue CNI family: CNI16Q, CNI512Q, and CNI16Qm (Table 1).
 *
 * Message data moves through per-context cachable queues of 64-byte
 * coherent blocks, four blocks (one 256-byte network message) per slot:
 *
 *  - The SEND queue is device-homed. The sender checks space against a
 *    lazy shadow of the device's head pointer (refreshing it with an
 *    uncached load only when the queue looks full), writes the message
 *    with ordinary cached stores, and signals the device with one
 *    uncached message-ready store. The device counts pending messages,
 *    pulls the blocks out of the processor cache with coherent reads —
 *    starting early via virtual polling: the snooped invalidation for
 *    block k+1 proves block k is complete — and injects.
 *
 *  - The RECEIVE queue is device-homed for CNI16Q/CNI512Q and homed in
 *    MAIN MEMORY for CNI16Qm (with a small device cache whose conflict
 *    writebacks implement the automatic overflow of Section 3). The
 *    device claims each block with an address-only invalidation, writes
 *    the payload, and writes the header word (carrying the sense-encoded
 *    message valid bit) last. The receiver polls the header word of the
 *    head slot — a cache hit while the queue is empty — and never writes
 *    the queue: sense reverse makes clearing the valid bit unnecessary.
 *
 * All three Section 2.2 optimizations (lazy pointers, message valid
 * bits, sense reverse) can be disabled individually for the ablation
 * benchmarks.
 */

#ifndef CNI_NI_CNIQ_HPP
#define CNI_NI_CNIQ_HPP

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "mem/cache.hpp"
#include "ni/net_iface.hpp"

namespace cni
{

/** Static configuration of one CNIiQ / CNIiQm device. */
struct CniqConfig
{
    std::string model = "CNI16Q"; //!< taxonomy label
    int sendQueueBlocks = 16;     //!< device-homed send CQ capacity
    int recvQueueBlocks = 16;     //!< receive CQ capacity
    bool recvHomeMemory = false;  //!< CNI16Qm: receive CQ homed in memory
    int recvCacheBlocks = 16;     //!< device cache over the receive CQ
    int numContexts = 1;          //!< user processes sharing the device

    // Section 2.2 optimizations (ablation switches; all on by default).
    bool lazySendHead = true;  //!< shadow head pointer on the send side
    bool msgValidBits = true;  //!< poll the valid bit, not a tail pointer
    bool senseReverse = true;  //!< alternate valid encoding per pass

    static CniqConfig cni16q();
    static CniqConfig cni512q();
    static CniqConfig cni16qm();

    /** The builtin preset for a CNIiQ taxonomy label, if there is one. */
    static std::optional<CniqConfig> preset(const std::string &model);
};

class Cniq : public NetIface
{
  public:
    Cniq(EventQueue &eq, NodeId node, CoherenceDomain &coh, Interconnect &net,
         NodeMemory &mem, const std::string &name, CniqConfig cfg);

    CoTask<bool> trySend(Proc &p, NetMsg msg, int ctx) override;
    CoTask<bool> tryRecv(Proc &p, NetMsg &out, int ctx) override;
    Tick quietPollCycles(Proc &p, int ctx) override;
    std::uint64_t chargeQuietPolls(Proc &p, int ctx,
                                   std::uint64_t polls) override;

    bool
    hardwareBuffersOverflow() const override
    {
        return cfg_.recvHomeMemory;
    }

    const std::string &modelName() const override { return cfg_.model; }
    const CniqConfig &config() const { return cfg_; }

    SnoopReply onBusTxn(const BusTxn &txn) override;
    bool netDeliver(const NetMsg &msg) override;

  protected:
    CoTask<bool> engineStep() override;
    void attachCaches() override;

  private:
    // Layout helpers --------------------------------------------------------
    int sendSlots() const { return cfg_.sendQueueBlocks / kBlocksPerSlot; }
    int recvSlots() const { return cfg_.recvQueueBlocks / kBlocksPerSlot; }
    Addr sendQBase(int ctx) const;
    Addr recvQBase(int ctx) const;
    Addr sendSlotAddr(int ctx, std::uint64_t slotMono) const;
    Addr recvSlotAddr(int ctx, std::uint64_t slotMono) const;
    int ctxOfSendAddr(Addr a) const; // -1 if not in any send queue
    int ctxOfRecvAddr(Addr a) const;

    /** The receiver's private driver-state block (head + sense). */
    static Addr
    recvStateAddr(int ctx)
    {
        return kDriverStateBase + Addr(ctx) * kCtxStateStride + kBlockBytes;
    }

    /** Sense encoding for a pass number (pass = slotMono / slots). */
    std::uint64_t senseOf(std::uint64_t slotMono, int slots) const;

    std::uint64_t headerWord(const NetMsg &m, std::uint64_t sense) const;

    // Engine work ------------------------------------------------------------
    CoTask<bool> recvWork(int ctx);
    CoTask<bool> sendWork(int ctx);
    CoTask<void> writeRecvSlot(int ctx);

    CniqConfig cfg_;

    /** Per-context device-side state. */
    struct Ctx
    {
        // Send side (device view).
        std::uint64_t devSendHead = 0;   //!< slots fully pulled (monotonic)
        std::uint64_t committed = 0;     //!< message-ready signals seen
        int pulledInSlot = 0;            //!< blocks pulled of current slot
        int vpBlocksWritten = 0;         //!< virtual polling: known-written
                                         //!< blocks of slot `committed`
        std::deque<NetMsg> stagedSend;   //!< data plane, slot order

        // Receive side (device view).
        std::uint64_t devRecvTail = 0;       //!< slots written (monotonic)
        std::uint64_t devRecvShadowHead = 0; //!< receiver-updated
        std::deque<NetMsg> recvPending;      //!< accepted, awaiting write
        bool recvWriting = false;            //!< popped, slot half-written
        std::vector<NetMsg> recvRing;        //!< data plane, slot-indexed

        // Driver-side software state (the sender/receiver private blocks;
        // timing is charged through cached accesses to state addresses,
        // values live here).
        std::uint64_t tail = 0;          //!< sender's tail (monotonic)
        std::uint64_t shadowHead = 0;    //!< sender's lazy head copy
        std::uint64_t head = 0;          //!< receiver's head (monotonic)
        std::uint64_t consumedSinceUpdate = 0;
    };

    std::vector<Ctx> ctxs_;
    std::unique_ptr<Cache> sendCache_; //!< device coherence state, send CQs
    std::unique_ptr<Cache> recvCache_; //!< device coherence state, recv CQs
    int rrCtx_ = 0;                    //!< engine round-robin cursor

    // Pre-bound per-operation counters (sim/stats.hpp Counter contract).
    StatSet::Counter cSendShadowRefreshes_;
    StatSet::Counter cSendFull_;
    StatSet::Counter cSends_;
    StatSet::Counter cRecvEmptyPolls_;
    StatSet::Counter cRecvHeadUpdates_;
    StatSet::Counter cRecvs_;
    StatSet::Counter cVirtualPollTriggers_;
    StatSet::Counter cRecvRefused_;
    StatSet::Counter cRecvBlocksClaimed_;
    StatSet::Counter cRecvSlotsWritten_;
    StatSet::Counter cSendBlocksPulled_;
};

} // namespace cni

#endif // CNI_NI_CNIQ_HPP
