/**
 * @file
 * NI2w: the conventional, CM-5-style network interface (Table 1).
 *
 * All processor interaction is through uncached device registers:
 *  - send: uncached load of STATUS (send-ok bit), then one uncached
 *    8-byte store per message word into SEND_DATA, then a store to
 *    SEND_COMMIT that moves the staged message into the hardware send
 *    FIFO;
 *  - receive: uncached load of STATUS (recv-ready bit), then one uncached
 *    8-byte load per message word from RECV_DATA with CM-5 clear-on-read
 *    semantics (the final word's read pops the hardware receive FIFO).
 *
 * The device is always a bus slave: it never arbitrates for any bus.
 * Hardware FIFOs are small (kNi2w*FifoMsgs), so bursty traffic forces the
 * software layer to drain and buffer messages in user memory.
 */

#ifndef CNI_NI_NI2W_HPP
#define CNI_NI_NI2W_HPP

#include <deque>

#include "ni/net_iface.hpp"

namespace cni
{

class Ni2w : public NetIface
{
  public:
    Ni2w(EventQueue &eq, NodeId node, CoherenceDomain &coh, Interconnect &net,
         NodeMemory &mem, const std::string &name);

    CoTask<bool> trySend(Proc &p, NetMsg msg, int ctx) override;
    CoTask<bool> tryRecv(Proc &p, NetMsg &out, int ctx) override;
    Tick quietPollCycles(Proc &p, int ctx) override;
    std::uint64_t chargeQuietPolls(Proc &p, int ctx,
                                   std::uint64_t polls) override;

    const std::string &modelName() const override { return model_; }

    // BusAgent ------------------------------------------------------------
    SnoopReply onBusTxn(const BusTxn &txn) override;

    // NiPort --------------------------------------------------------------
    bool netDeliver(const NetMsg &msg) override;

  protected:
    CoTask<bool> engineStep() override;

  private:
    std::uint64_t statusWord() const;

    std::string model_ = "NI2w";
    std::deque<NetMsg> sendFifo_; //!< staged-and-committed outgoing
    std::deque<NetMsg> recvFifo_; //!< accepted incoming
    std::deque<NetMsg> staged_;   //!< committed by driver, awaiting the
                                  //!< SEND_COMMIT store to reach the device

    // Pre-bound per-operation counters (sim/stats.hpp Counter contract).
    StatSet::Counter cSendFull_;
    StatSet::Counter cSends_;
    StatSet::Counter cRecvEmptyPolls_;
    StatSet::Counter cRecvs_;
    StatSet::Counter cRecvRefused_;
};

} // namespace cni

#endif // CNI_NI_NI2W_HPP
