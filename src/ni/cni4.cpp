#include "ni/cni4.hpp"

#include "ni/registry.hpp"
#include "sim/logging.hpp"

#include <utility>

namespace cni
{

namespace
{
constexpr int kCdrBlocks = kBlocksPerSlot; // 4 blocks = 1 network message

int
blocksForWire(std::size_t wireBytes)
{
    return static_cast<int>(blocksFor(wireBytes));
}
} // namespace

Cni4::Cni4(EventQueue &eq, NodeId node, CoherenceDomain &coh, Interconnect &net,
           NodeMemory &mem, const std::string &name)
    : NetIface(eq, node, coh, net, mem, name),
      devCache_(eq, name + ".devcache", 2 * kCdrBlocks, Initiator::Device),
      cSendFull_(stats_, "send_full"), cSends_(stats_, "sends"),
      cRecvEmptyPolls_(stats_, "recv_empty_polls"),
      cRecvs_(stats_, "recvs"), cRecvRefused_(stats_, "recv_refused"),
      cSendBlocksPulled_(stats_, "send_blocks_pulled"),
      cRecvClears_(stats_, "recv_clears"),
      cRecvPresented_(stats_, "recv_presented")
{
    // The device owns its CDR storage at reset.
    for (int b = 0; b < kCdrBlocks; ++b) {
        devCache_.primeLine(kCni4SendCdr + Addr(b) * kBlockBytes,
                            Moesi::Modified);
        devCache_.primeLine(kCni4RecvCdr + Addr(b) * kBlockBytes,
                            Moesi::Modified);
    }
}

// ---------------------------------------------------------------------
// Driver (processor-side protocol)
// ---------------------------------------------------------------------

CoTask<bool>
Cni4::trySend(Proc &p, NetMsg msg, int)
{
    const std::uint64_t st =
        co_await p.uncachedLoad(ctxReg(0, kRegSendStatus));
    if (st & 1) {
        cSendFull_.incr();
        co_return false; // CDR busy: previous message not yet collected
    }
    // Write the message into the send CDR with ordinary cached stores;
    // each block write's upgrade/read-exclusive is snooped by the device
    // (virtual polling).
    const std::size_t wire = msg.wireBytes();
    co_await p.touch(kCni4SendCdr, wire, true);
    stagedSend_.push_back(std::move(msg));
    // The commit retires through the store buffer; no barrier is needed
    // because the device orders it behind the block writes it snooped,
    // and the next status read drains the buffer anyway.
    co_await p.uncachedStore(ctxReg(0, kRegSendCommit), 1);
    cSends_.incr();
    co_return true;
}

CoTask<bool>
Cni4::tryRecv(Proc &p, NetMsg &out, int)
{
    const std::uint64_t st =
        co_await p.uncachedLoad(ctxReg(0, kRegRecvStatus));
    if (!(st & 1)) {
        cRecvEmptyPolls_.incr();
        co_return false;
    }
    cni_assert(recvReady_ && !recvClearing_);
    // Read the message out of the CDR with cached loads (block misses are
    // supplied cache-to-cache by the device).
    const std::size_t wire = recvCur_.wireBytes();
    co_await p.touch(kCni4RecvCdr, wire, false);
    out = recvCur_;
    // Explicit pop + store-buffer flush: steps one and two of the
    // three-cycle reuse handshake. Step three is the next status poll,
    // which reports ready only after the device re-invalidated the CDR.
    // The CDR stays "presented" (device state) until the pop reaches the
    // device; uncached loads drain the store buffer, so the next status
    // poll cannot bypass this pop.
    co_await p.uncachedStore(ctxReg(0, kRegRecvPop), 1);
    co_await p.membar();
    cRecvs_.incr();
    co_return true;
}

Tick
Cni4::quietPollCycles(Proc &p, int)
{
    // The engine masters the bus to clear the receive CDR and to pull
    // written send-CDR blocks, and presents queued messages; with none
    // of that left, only a delivery (bounded by the poll horizon) can
    // make the next status poll read ready.
    if (recvReady_ || recvClearing_ || !recvFifo_.empty() ||
        sendBlocksPulled_ < sendBlocksWritten_)
        return 0;
    return quietStatusPollCycles(p);
}

std::uint64_t
Cni4::chargeQuietPolls(Proc &p, int, std::uint64_t polls)
{
    chargeStatusPolls(p, polls);
    cRecvEmptyPolls_.incr(polls);
    return polls; // one bus completion each
}

// ---------------------------------------------------------------------
// Bus-visible behaviour
// ---------------------------------------------------------------------

SnoopReply
Cni4::onBusTxn(const BusTxn &txn)
{
    if (!CoherenceDomain::isNiAddr(txn.addr))
        return {};

    if (isDeviceRegister(txn.addr)) {
        SnoopReply r;
        r.isHome = true;
        const Addr off = txn.addr & (kCtxRegStride - 1);
        if (txn.kind == TxnKind::UncachedRead) {
            if (off == kRegSendStatus)
                r.data = sendBusy_ ? 1 : 0;
            else if (off == kRegRecvStatus)
                r.data = (recvReady_ && !recvClearing_) ? 1 : 0;
        } else if (txn.kind == TxnKind::UncachedWrite) {
            if (off == kRegSendCommit) {
                cni_assert(!stagedSend_.empty());
                sendBusy_ = true;
                sendCommitted_ = true;
                sendBlocksTotal_ =
                    blocksForWire(stagedSend_.front().wireBytes());
                sendBlocksWritten_ = sendBlocksTotal_;
                kick();
            } else if (off == kRegRecvPop) {
                cni_assert(recvReady_ && !recvClearing_);
                recvReady_ = false;
                recvClearing_ = true;
                kick();
            }
        }
        return r;
    }

    // Device-homed CDR space: delegate coherence to the device cache and
    // watch processor write-permission requests for virtual polling.
    SnoopReply r = devCache_.onBusTxn(txn);
    r.isHome = true;
    if ((txn.kind == TxnKind::Upgrade || txn.kind == TxnKind::ReadExclusive)
        && txn.initiator == Initiator::Processor &&
        txn.addr >= kCni4SendCdr &&
        txn.addr < kCni4SendCdr + Addr(kCdrBlocks) * kBlockBytes) {
        const int blk =
            static_cast<int>((txn.addr - kCni4SendCdr) / kBlockBytes);
        // An invalidation for block k means blocks < k are fully written
        // (CDRs fill in FIFO order); allow the engine to pull them early.
        if (!sendCommitted_ && blk > sendBlocksWritten_) {
            sendBlocksWritten_ = blk;
            kick();
        }
    }
    return r;
}

bool
Cni4::netDeliver(const NetMsg &msg)
{
    if (static_cast<int>(recvFifo_.size()) >= kCni4RecvFifoMsgs) {
        cRecvRefused_.incr();
        return false;
    }
    recvFifo_.push_back(msg);
    kick();
    return true;
}

// ---------------------------------------------------------------------
// Device engine
// ---------------------------------------------------------------------

CoTask<bool>
Cni4::engineStep()
{
    // Receive side first: present or clear the receive CDR.
    if (recvClearing_) {
        co_await clearRecvCdr();
        co_return true;
    }
    if (!recvReady_ && !recvClearing_ && !recvFifo_.empty()) {
        presentNextRecv();
        co_return true;
    }
    // Send side: pull written CDR blocks (virtual polling or commit) —
    // but stop collecting when assembled messages are already waiting
    // for window space, so the CDR stays busy and the sender stalls.
    if (sendBlocksPulled_ < sendBlocksWritten_ &&
        injectBacklog() < kInjectBacklogLimit) {
        co_await pullSendCdr();
        co_return true;
    }
    co_return false;
}

CoTask<void>
Cni4::pullSendCdr()
{
    const Addr a =
        kCni4SendCdr + Addr(sendBlocksPulled_) * kBlockBytes;
    co_await busyFor(kNiEngineCycles);
    // Coherent read: the processor cache supplies (M -> O).
    co_await devCache_.fetchBlock(a, false);
    ++sendBlocksPulled_;
    cSendBlocksPulled_.incr();
    if (sendCommitted_ && sendBlocksPulled_ >= sendBlocksTotal_) {
        // Whole message collected: assemble and queue for injection.
        cni_assert(!stagedSend_.empty());
        NetMsg msg = std::move(stagedSend_.front());
        stagedSend_.pop_front();
        queueForInjection(std::move(msg));
        sendBlocksPulled_ = 0;
        sendBlocksWritten_ = 0;
        sendBlocksTotal_ = 0;
        sendCommitted_ = false;
        sendBusy_ = false;
    }
}

CoTask<void>
Cni4::clearRecvCdr()
{
    // Invalidate the processor's cached copies of the receive CDR so the
    // next message cannot produce false hits.
    const int blocks = blocksForWire(recvCur_.wireBytes());
    for (int b = 0; b < blocks; ++b) {
        const Addr a = kCni4RecvCdr + Addr(b) * kBlockBytes;
        co_await busyFor(kNiEngineCycles);
        co_await devCache_.fetchBlock(a, true);
    }
    recvClearing_ = false;
    cRecvClears_.incr();
    if (!recvFifo_.empty())
        presentNextRecv();
}

void
Cni4::presentNextRecv()
{
    // The device owns the CDR blocks after the clear; writing the next
    // message into its own storage needs no bus transactions.
    recvCur_ = std::move(recvFifo_.front());
    recvFifo_.pop_front();
    // Architectural data: expose header + payload at the CDR addresses.
    mem_.write64(kCni4RecvCdr, (std::uint64_t(recvCur_.handler) << 32) |
                                   recvCur_.payloadBytes());
    if (!recvCur_.payload.empty()) {
        mem_.write(kCni4RecvCdr + kNetworkHeaderBytes,
                   std::as_const(recvCur_.payload).data(),
                   recvCur_.payload.size());
    }
    recvReady_ = true;
    cRecvPresented_.incr();
}

void
detail::registerCni4Model(NiRegistry &r)
{
    NiTraits t;
    t.coherent = true;
    t.queueBased = false;
    t.memoryHomedRecv = false;
    r.register_("CNI4", t, [](const NiBuildContext &c) {
        return std::make_unique<Cni4>(c.eq, c.node, c.coh, c.net, c.mem,
                                      c.name);
    });
}

} // namespace cni
