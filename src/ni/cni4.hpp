/**
 * @file
 * CNI4: four cachable device registers expose one 256-byte network
 * message (Table 1, Section 3).
 *
 * Message data moves in whole cache blocks over the coherence protocol;
 * status and control stay in uncached registers. Receive-side CDR reuse
 * needs the explicit three-cycle handshake of Section 2.1:
 *   1. the processor pops with an uncached store to RECV_POP,
 *   2. a memory barrier pushes the store out of the store buffer,
 *   3. the status register does not report "ready" again until the
 *      device has invalidated the processor's cached copy of the CDR —
 *      so the next status poll closes the handshake.
 *
 * The device implements the virtual-polling variant of Section 3 on the
 * send side: snooping the invalidation (upgrade) for CDR block k+1 lets
 * it pull block k before the commit signal arrives.
 */

#ifndef CNI_NI_CNI4_HPP
#define CNI_NI_CNI4_HPP

#include <deque>

#include "mem/cache.hpp"
#include "ni/net_iface.hpp"

namespace cni
{

class Cni4 : public NetIface
{
  public:
    Cni4(EventQueue &eq, NodeId node, CoherenceDomain &coh, Interconnect &net,
         NodeMemory &mem, const std::string &name);

    CoTask<bool> trySend(Proc &p, NetMsg msg, int ctx) override;
    CoTask<bool> tryRecv(Proc &p, NetMsg &out, int ctx) override;

    const std::string &modelName() const override { return model_; }

    SnoopReply onBusTxn(const BusTxn &txn) override;
    bool netDeliver(const NetMsg &msg) override;

    /** Introspection for tests: receive-path device state. */
    struct DebugState
    {
        bool sendBusy;
        bool recvReady;
        bool recvClearing;
        std::size_t recvFifo;
        std::size_t stagedSend;
    };

    DebugState
    debugState() const
    {
        return {sendBusy_, recvReady_, recvClearing_, recvFifo_.size(),
                stagedSend_.size()};
    }

  protected:
    CoTask<bool> engineStep() override;
    void attachCaches() override { devCache_.attach(coh_, busId_); }

  private:
    CoTask<void> pullSendCdr();
    CoTask<void> clearRecvCdr();
    void presentNextRecv();

    std::string model_ = "CNI4";

    /** Device-side coherence state for the CDR blocks. */
    Cache devCache_;

    // Send side ----------------------------------------------------------
    bool sendBusy_ = false;      //!< CDR holds an uncollected message
    bool sendCommitted_ = false; //!< commit signal arrived
    int sendBlocksWritten_ = 0;  //!< virtual polling: blocks known written
    int sendBlocksPulled_ = 0;
    int sendBlocksTotal_ = 0;
    std::deque<NetMsg> stagedSend_; //!< driver-to-device data plane

    // Receive side ---------------------------------------------------------
    bool recvReady_ = false;    //!< a message is presented in the CDR
    bool recvClearing_ = false; //!< pop handshake in progress
    NetMsg recvCur_;            //!< message currently in the CDR
    std::deque<NetMsg> recvFifo_;

    // Pre-bound per-operation counters (sim/stats.hpp Counter contract).
    StatSet::Counter cSendFull_;
    StatSet::Counter cSends_;
    StatSet::Counter cRecvEmptyPolls_;
    StatSet::Counter cRecvs_;
    StatSet::Counter cRecvRefused_;
    StatSet::Counter cSendBlocksPulled_;
    StatSet::Counter cRecvClears_;
    StatSet::Counter cRecvPresented_;
};

} // namespace cni

#endif // CNI_NI_CNI4_HPP
