#include "ni/ni2w.hpp"

#include "sim/logging.hpp"

namespace cni
{

Ni2w::Ni2w(EventQueue &eq, NodeId node, CoherenceDomain &coh, Interconnect &net,
           NodeMemory &mem, const std::string &name)
    : NetIface(eq, node, coh, net, mem, name),
      cSendFull_(stats_, "send_full"), cSends_(stats_, "sends"),
      cRecvEmptyPolls_(stats_, "recv_empty_polls"),
      cRecvs_(stats_, "recvs"), cRecvRefused_(stats_, "recv_refused")
{
}

std::uint64_t
Ni2w::statusWord() const
{
    std::uint64_t st = 0;
    if (static_cast<int>(sendFifo_.size()) < kNi2wSendFifoMsgs)
        st |= 1; // send ok
    if (!recvFifo_.empty())
        st |= 2; // recv ready
    return st;
}

CoTask<bool>
Ni2w::trySend(Proc &p, NetMsg msg, int)
{
    // Check for space in the hardware send queue.
    const std::uint64_t st = co_await p.uncachedLoad(ctxReg(0, kRegStatus));
    if (!(st & 1)) {
        cSendFull_.incr();
        co_return false;
    }
    // Write the message, one uncached 8-byte store per word (header word
    // included: 12-byte header rounds to two words with the first payload
    // bytes packed in).
    const std::size_t words = (msg.wireBytes() + 7) / 8;
    for (std::size_t w = 0; w < words; ++w)
        co_await p.uncachedStore(ctxReg(0, kRegSendData), w);
    // Commit: the store's arrival at the device moves the staged message
    // into the hardware FIFO (FIFO order matches the store buffer's).
    staged_.push_back(std::move(msg));
    co_await p.uncachedStore(ctxReg(0, kRegSendCommit), 1);
    cSends_.incr();
    co_return true;
}

CoTask<bool>
Ni2w::tryRecv(Proc &p, NetMsg &out, int)
{
    const std::uint64_t st = co_await p.uncachedLoad(ctxReg(0, kRegStatus));
    if (!(st & 2)) {
        cRecvEmptyPolls_.incr();
        co_return false;
    }
    cni_assert(!recvFifo_.empty());
    const std::size_t words = (recvFifo_.front().wireBytes() + 7) / 8;
    // One uncached 8-byte load per word; the last read implicitly pops
    // the hardware receive queue (CM-5 clear-on-read).
    for (std::size_t w = 0; w < words; ++w)
        co_await p.uncachedLoad(ctxReg(0, kRegRecvData));
    out = std::move(recvFifo_.front());
    recvFifo_.pop_front();
    cRecvs_.incr();
    co_return true;
}

Tick
Ni2w::quietPollCycles(Proc &p, int)
{
    // A bus slave: only a delivery, which the poll horizon bounds, sets
    // the ready bit.
    return recvFifo_.empty() ? quietStatusPollCycles(p) : 0;
}

std::uint64_t
Ni2w::chargeQuietPolls(Proc &p, int, std::uint64_t polls)
{
    chargeStatusPolls(p, polls);
    cRecvEmptyPolls_.incr(polls);
    return polls; // one bus completion each
}

SnoopReply
Ni2w::onBusTxn(const BusTxn &txn)
{
    SnoopReply r;
    if (!CoherenceDomain::isNiAddr(txn.addr))
        return r;
    r.isHome = true;
    switch (txn.kind) {
      case TxnKind::UncachedRead:
        if ((txn.addr & (kCtxRegStride - 1)) == kRegStatus)
            r.data = statusWord();
        return r;
      case TxnKind::UncachedWrite:
        if ((txn.addr & (kCtxRegStride - 1)) == kRegSendCommit) {
            cni_assert(!staged_.empty());
            cni_assert(static_cast<int>(sendFifo_.size()) <
                       kNi2wSendFifoMsgs);
            sendFifo_.push_back(std::move(staged_.front()));
            staged_.pop_front();
            kick();
        }
        return r;
      default:
        // NI2w exposes no cachable space; coherent transactions to NI
        // space should not occur.
        return r;
    }
}

bool
Ni2w::netDeliver(const NetMsg &msg)
{
    if (static_cast<int>(recvFifo_.size()) >= kNi2wRecvFifoMsgs) {
        cRecvRefused_.incr();
        return false;
    }
    recvFifo_.push_back(msg);
    return true;
}

CoTask<bool>
Ni2w::engineStep()
{
    if (sendFifo_.empty() || injectBacklog() >= kInjectBacklogLimit)
        co_return false;
    co_await busyFor(kNiEngineCycles);
    queueForInjection(std::move(sendFifo_.front()));
    sendFifo_.pop_front();
    co_return true;
}

} // namespace cni
