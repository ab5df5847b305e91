#include "ni/cniq.hpp"

#include "ni/registry.hpp"
#include "sim/logging.hpp"

#include <utility>

namespace cni
{

CniqConfig
CniqConfig::cni16q()
{
    CniqConfig c;
    c.model = "CNI16Q";
    c.sendQueueBlocks = 16;
    c.recvQueueBlocks = 16;
    c.recvCacheBlocks = 16;
    c.recvHomeMemory = false;
    return c;
}

CniqConfig
CniqConfig::cni512q()
{
    CniqConfig c;
    c.model = "CNI512Q";
    c.sendQueueBlocks = 512;
    c.recvQueueBlocks = 512;
    c.recvCacheBlocks = 512;
    c.recvHomeMemory = false;
    return c;
}

CniqConfig
CniqConfig::cni16qm()
{
    CniqConfig c;
    c.model = "CNI16Qm";
    c.sendQueueBlocks = 16;
    // "The total size of the memory-based queue is 512 cache/memory
    // blocks" with 16 blocks cached on the device (Section 3).
    c.recvQueueBlocks = 512;
    c.recvCacheBlocks = 16;
    c.recvHomeMemory = true;
    return c;
}

std::optional<CniqConfig>
CniqConfig::preset(const std::string &model)
{
    if (model == "CNI16Q")
        return cni16q();
    if (model == "CNI512Q")
        return cni512q();
    if (model == "CNI16Qm")
        return cni16qm();
    return std::nullopt;
}

Cniq::Cniq(EventQueue &eq, NodeId node, CoherenceDomain &coh, Interconnect &net,
           NodeMemory &mem, const std::string &name, CniqConfig cfg)
    : NetIface(eq, node, coh, net, mem, name), cfg_(std::move(cfg)),
      cSendShadowRefreshes_(stats_, "send_shadow_refreshes"),
      cSendFull_(stats_, "send_full"), cSends_(stats_, "sends"),
      cRecvEmptyPolls_(stats_, "recv_empty_polls"),
      cRecvHeadUpdates_(stats_, "recv_head_updates"),
      cRecvs_(stats_, "recvs"),
      cVirtualPollTriggers_(stats_, "virtual_poll_triggers"),
      cRecvRefused_(stats_, "recv_refused"),
      cRecvBlocksClaimed_(stats_, "recv_blocks_claimed"),
      cRecvSlotsWritten_(stats_, "recv_slots_written"),
      cSendBlocksPulled_(stats_, "send_blocks_pulled")
{
    cni_assert(cfg_.sendQueueBlocks % kBlocksPerSlot == 0);
    cni_assert(cfg_.recvQueueBlocks % kBlocksPerSlot == 0);
    cni_assert(!cfg_.recvHomeMemory ||
               coh.placement() == NiPlacement::MemoryBus);

    ctxs_.resize(cfg_.numContexts);
    for (auto &c : ctxs_)
        c.recvRing.resize(recvSlots());

    sendCache_ = std::make_unique<Cache>(
        eq, name + ".sendcache",
        std::size_t(cfg_.sendQueueBlocks) * cfg_.numContexts,
        Initiator::Device);
    recvCache_ = std::make_unique<Cache>(
        eq, name + ".recvcache",
        std::size_t(cfg_.recvCacheBlocks) * cfg_.numContexts,
        Initiator::Device);
    // Memory-homed queues stage transient data: pass dirty ownership to
    // the consuming processor on supply so only *unread* overflow blocks
    // are ever written back (see Cache::setTransferOwnership).
    if (cfg_.recvHomeMemory)
        recvCache_->setTransferOwnership(true);

    // The device owns its home storage at reset.
    for (int ctx = 0; ctx < cfg_.numContexts; ++ctx) {
        for (int b = 0; b < cfg_.sendQueueBlocks; ++b) {
            sendCache_->primeLine(sendQBase(ctx) + Addr(b) * kBlockBytes,
                                  Moesi::Modified);
        }
        if (!cfg_.recvHomeMemory) {
            for (int b = 0; b < cfg_.recvQueueBlocks; ++b) {
                recvCache_->primeLine(
                    recvQBase(ctx) + Addr(b) * kBlockBytes,
                    Moesi::Modified);
            }
        }
    }
}

void
Cniq::attachCaches()
{
    sendCache_->attach(coh_, busId_);
    recvCache_->attach(coh_, busId_);
}

// ---------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------

Addr
Cniq::sendQBase(int ctx) const
{
    return kDevSendQBase + Addr(ctx) * kCtxQueueStride;
}

Addr
Cniq::recvQBase(int ctx) const
{
    return (cfg_.recvHomeMemory ? kMemRecvQBase : kDevRecvQBase) +
           Addr(ctx) * kCtxQueueStride;
}

Addr
Cniq::sendSlotAddr(int ctx, std::uint64_t slotMono) const
{
    return sendQBase(ctx) +
           (slotMono % sendSlots()) * kNetworkMessageBytes;
}

Addr
Cniq::recvSlotAddr(int ctx, std::uint64_t slotMono) const
{
    return recvQBase(ctx) +
           (slotMono % recvSlots()) * kNetworkMessageBytes;
}

int
Cniq::ctxOfSendAddr(Addr a) const
{
    for (int ctx = 0; ctx < cfg_.numContexts; ++ctx) {
        const Addr base = sendQBase(ctx);
        if (a >= base && a < base + Addr(cfg_.sendQueueBlocks) * kBlockBytes)
            return ctx;
    }
    return -1;
}

int
Cniq::ctxOfRecvAddr(Addr a) const
{
    for (int ctx = 0; ctx < cfg_.numContexts; ++ctx) {
        const Addr base = recvQBase(ctx);
        if (a >= base && a < base + Addr(cfg_.recvQueueBlocks) * kBlockBytes)
            return ctx;
    }
    return -1;
}

std::uint64_t
Cniq::senseOf(std::uint64_t slotMono, int slots) const
{
    if (!cfg_.senseReverse)
        return 1; // valid always encoded as 1
    const std::uint64_t pass = slotMono / slots;
    return (pass % 2 == 0) ? 1 : 0;
}

std::uint64_t
Cniq::headerWord(const NetMsg &m, std::uint64_t sense) const
{
    // [0] sense/valid bit, [8:1] fragIndex, [16:9] fragCount,
    // [32:17] payload bytes, [63:33] handler.
    return (sense & 1) | (std::uint64_t(m.fragIndex & 0xff) << 1) |
           (std::uint64_t(m.fragCount & 0xff) << 9) |
           (std::uint64_t(m.payloadBytes() & 0xffff) << 17) |
           (std::uint64_t(m.handler) << 33);
}

// ---------------------------------------------------------------------
// Driver: send
// ---------------------------------------------------------------------

CoTask<bool>
Cniq::trySend(Proc &p, NetMsg msg, int ctx)
{
    cni_assert(ctx >= 0 && ctx < cfg_.numContexts);
    Ctx &c = ctxs_[ctx];
    const Addr stateAddr = kDriverStateBase + Addr(ctx) * kCtxStateStride;

    // Check for space against the (lazy) shadow head.
    co_await p.read64(stateAddr); // tail + shadow head + sense: one block
    auto slotsUsed = [&] { return c.tail - c.shadowHead; };
    if (!cfg_.lazySendHead ||
        slotsUsed() >= std::uint64_t(sendSlots())) {
        // Refresh the shadow from the device's head register.
        cSendShadowRefreshes_.incr();
        c.shadowHead = co_await p.uncachedLoad(ctxReg(ctx, kRegSendHead));
        co_await p.write64(stateAddr, c.shadowHead);
        if (slotsUsed() >= std::uint64_t(sendSlots())) {
            cSendFull_.incr();
            co_return false;
        }
    }

    // Write the message into the slot in ascending order (header word
    // first). Unlike the receive queue, send-queue validity is signalled
    // by the message-ready register, not the sense word, so ascending
    // order is safe — and it lets virtual polling pull block k-1 exactly
    // once, when the write of block k invalidates it.
    const Addr slot = sendSlotAddr(ctx, c.tail);
    co_await p.write64(slot,
                       headerWord(msg, senseOf(c.tail, sendSlots())));
    if (msg.wireBytes() > 8)
        co_await p.touch(slot + 8, msg.wireBytes() - 8, true);

    // Advance the private tail and signal the device.
    c.tail += 1;
    co_await p.write64(stateAddr, c.tail);
    c.stagedSend.push_back(std::move(msg));
    co_await p.uncachedStore(ctxReg(ctx, kRegMsgReady), 1);
    cSends_.incr();
    co_return true;
}

// ---------------------------------------------------------------------
// Driver: receive
// ---------------------------------------------------------------------

CoTask<bool>
Cniq::tryRecv(Proc &p, NetMsg &out, int ctx)
{
    cni_assert(ctx >= 0 && ctx < cfg_.numContexts);
    Ctx &c = ctxs_[ctx];
    const Addr stateAddr = recvStateAddr(ctx);

    co_await p.read64(stateAddr); // head + sense: private, cached

    if (!cfg_.msgValidBits) {
        // Ablation: poll the device's tail register instead (one uncached
        // load per poll attempt).
        const std::uint64_t tail =
            co_await p.uncachedLoad(ctxReg(ctx, kRegRecvStatus));
        if (tail == c.head) {
            cRecvEmptyPolls_.incr();
            co_return false;
        }
    }

    const Addr slot = recvSlotAddr(ctx, c.head);
    // Poll the message valid bit in the head slot's header word. While
    // the queue is empty this hits in the processor cache; the device's
    // claim invalidation makes the next poll miss and fetch new data.
    const std::uint64_t hdr = co_await p.read64(slot);
    const std::uint64_t want = senseOf(c.head, recvSlots());
    if (cfg_.msgValidBits && (hdr & 1) != want) {
        cRecvEmptyPolls_.incr();
        co_return false;
    }

    // Valid message: read the payload blocks.
    const std::size_t payloadBytes = (hdr >> 17) & 0xffff;
    if (payloadBytes + kNetworkHeaderBytes > 8) {
        co_await p.touch(slot + 8, payloadBytes + kNetworkHeaderBytes - 8,
                         false);
    }
    out = c.recvRing[c.head % recvSlots()];

    if (!cfg_.senseReverse) {
        // Ablation: clear the valid word, transferring ownership of the
        // block to the receiver (the extra transaction sense reverse
        // avoids).
        co_await p.write64(slot, hdr & ~std::uint64_t(1));
    }

    // Advance the private head; lazily propagate it to the device.
    c.head += 1;
    c.consumedSinceUpdate += 1;
    co_await p.write64(stateAddr, c.head);
    const std::uint64_t period =
        std::max<std::uint64_t>(1, std::uint64_t(recvSlots()) / 2);
    if (c.consumedSinceUpdate >= period) {
        c.consumedSinceUpdate = 0;
        cRecvHeadUpdates_.incr();
        co_await p.uncachedStore(ctxReg(ctx, kRegRecvHead), c.head);
    }
    cRecvs_.incr();
    co_return true;
}

Tick
Cniq::quietPollCycles(Proc &p, int ctx)
{
    // The tail-register ablation polls with an uncached load.
    if (!cfg_.msgValidBits)
        return 0;
    // Queued or half-written slots will soon claim the head lines.
    // (writeRecvSlot pops recvPending before it advances devRecvTail.)
    const Ctx &c = ctxs_[ctx];
    if (!c.recvPending.empty() || c.recvWriting)
        return 0;
    // Both of tryRecv's reads hit, and the head slot holds no message.
    const Addr slot = recvSlotAddr(ctx, c.head);
    Cache &cache = p.cache();
    if (!cache.contains(recvStateAddr(ctx)) || !cache.contains(slot))
        return 0;
    if ((mem_.read64(slot) & 1) == senseOf(c.head, recvSlots()))
        return 0;
    return 2 * kCacheHitCycles;
}

std::uint64_t
Cniq::chargeQuietPolls(Proc &p, int ctx, std::uint64_t polls)
{
    Cache &cache = p.cache();
    cache.chargeLoadHits(recvStateAddr(ctx), polls);
    cache.chargeLoadHits(recvSlotAddr(ctx, ctxs_[ctx].head), polls);
    cRecvEmptyPolls_.incr(polls);
    return 2 * polls; // two hit resumes each
}

// ---------------------------------------------------------------------
// Bus-visible behaviour
// ---------------------------------------------------------------------

SnoopReply
Cniq::onBusTxn(const BusTxn &txn)
{
    // Memory-homed receive queues: the device cache snoops main-memory
    // addresses like any other cache.
    if (isMainMemory(txn.addr)) {
        if (cfg_.recvHomeMemory && ctxOfRecvAddr(txn.addr) >= 0)
            return recvCache_->onBusTxn(txn);
        return {};
    }
    if (!CoherenceDomain::isNiAddr(txn.addr))
        return {};

    if (isDeviceRegister(txn.addr)) {
        SnoopReply r;
        r.isHome = true;
        const int ctx =
            static_cast<int>((txn.addr - kDevRegBase) / kCtxRegStride);
        if (ctx < 0 || ctx >= cfg_.numContexts)
            return r;
        Ctx &c = ctxs_[ctx];
        const Addr off = txn.addr & (kCtxRegStride - 1);
        if (txn.kind == TxnKind::UncachedRead) {
            if (off == kRegSendHead)
                r.data = c.devSendHead;
            else if (off == kRegRecvStatus)
                r.data = c.devRecvTail;
        } else if (txn.kind == TxnKind::UncachedWrite) {
            if (off == kRegMsgReady) {
                c.committed += 1;
                c.vpBlocksWritten = 0;
                kick();
            } else if (off == kRegRecvHead) {
                c.devRecvShadowHead = txn.data;
                kick(); // space may have freed
            }
        }
        return r;
    }

    // Device-homed queue space.
    if (int ctx = ctxOfSendAddr(txn.addr); ctx >= 0) {
        SnoopReply r = sendCache_->onBusTxn(txn);
        r.isHome = true;
        // Virtual polling: a processor write-permission request for block
        // k of the in-progress slot proves blocks < k are complete.
        if ((txn.kind == TxnKind::Upgrade ||
             txn.kind == TxnKind::ReadExclusive) &&
            txn.initiator == Initiator::Processor) {
            Ctx &c = ctxs_[ctx];
            const Addr slotBase = sendSlotAddr(ctx, c.committed);
            if (txn.addr >= slotBase &&
                txn.addr < slotBase + kNetworkMessageBytes) {
                const int blk =
                    static_cast<int>((txn.addr - slotBase) / kBlockBytes);
                if (blk > c.vpBlocksWritten) {
                    c.vpBlocksWritten = blk;
                    cVirtualPollTriggers_.incr();
                    kick();
                }
            }
        }
        return r;
    }
    if (ctxOfRecvAddr(txn.addr) >= 0 && !cfg_.recvHomeMemory) {
        SnoopReply r = recvCache_->onBusTxn(txn);
        r.isHome = true;
        return r;
    }

    SnoopReply r;
    r.isHome = true; // unused NI space
    return r;
}

bool
Cniq::netDeliver(const NetMsg &msg)
{
    cni_assert(static_cast<int>(msg.ctx) < cfg_.numContexts);
    Ctx &c = ctxs_[msg.ctx];
    // Accept while ring slots remain (device view of the receiver head);
    // CNI16Qm's larger memory-homed ring is what lets it keep absorbing
    // bursts that back up the network for the others.
    const std::uint64_t inQueue =
        c.devRecvTail - c.devRecvShadowHead + c.recvPending.size();
    if (inQueue >= std::uint64_t(recvSlots())) {
        cRecvRefused_.incr();
        return false;
    }
    c.recvPending.push_back(msg);
    kick();
    return true;
}

// ---------------------------------------------------------------------
// Device engine
// ---------------------------------------------------------------------

CoTask<bool>
Cniq::engineStep()
{
    // Round-robin over contexts; receive work before send work.
    for (int i = 0; i < cfg_.numContexts; ++i) {
        const int ctx = (rrCtx_ + i) % cfg_.numContexts;
        if (co_await recvWork(ctx)) {
            rrCtx_ = (ctx + 1) % cfg_.numContexts;
            co_return true;
        }
    }
    for (int i = 0; i < cfg_.numContexts; ++i) {
        const int ctx = (rrCtx_ + i) % cfg_.numContexts;
        if (co_await sendWork(ctx)) {
            rrCtx_ = (ctx + 1) % cfg_.numContexts;
            co_return true;
        }
    }
    co_return false;
}

CoTask<bool>
Cniq::recvWork(int ctx)
{
    Ctx &c = ctxs_[ctx];
    if (c.recvPending.empty())
        co_return false;
    if (c.devRecvTail - c.devRecvShadowHead >= std::uint64_t(recvSlots()))
        co_return false; // no slot space (receiver lagging)
    co_await writeRecvSlot(ctx);
    co_return true;
}

CoTask<void>
Cniq::writeRecvSlot(int ctx)
{
    Ctx &c = ctxs_[ctx];
    NetMsg msg = std::move(c.recvPending.front());
    c.recvPending.pop_front();
    c.recvWriting = true;

    const Addr slot = recvSlotAddr(ctx, c.devRecvTail);
    const int blocks = static_cast<int>(blocksFor(msg.wireBytes()));

    // Claim payload blocks first, the header block last, so the valid bit
    // becomes visible only after the payload is in place.
    for (int b = blocks - 1; b >= 0; --b) {
        const Addr a = slot + Addr(b) * kBlockBytes;
        co_await busyFor(kNiEngineCycles);
        co_await recvCache_->claimBlock(a, /*deferWriteback=*/true);
        cRecvBlocksClaimed_.incr();
    }

    // Architectural data: header word (sense last in program order) and
    // payload bytes.
    if (!msg.payload.empty()) {
        mem_.write(slot + kNetworkHeaderBytes,
                   std::as_const(msg.payload).data(),
                   msg.payload.size());
    }
    mem_.write64(slot,
                 headerWord(msg, senseOf(c.devRecvTail, recvSlots())));

    c.recvRing[c.devRecvTail % recvSlots()] = std::move(msg);
    c.devRecvTail += 1;
    c.recvWriting = false;
    cRecvSlotsWritten_.incr();
}

CoTask<bool>
Cniq::sendWork(int ctx)
{
    Ctx &c = ctxs_[ctx];

    // Window backpressure: with assembled messages already waiting for
    // injection, stop draining the send queue so it fills and the
    // processor sees the flow-control condition.
    if (injectBacklog() >= kInjectBacklogLimit)
        co_return false;

    const bool slotCommitted = c.devSendHead < c.committed;
    int pullableBlocks = 0;
    std::size_t wire = kNetworkMessageBytes;
    if (slotCommitted) {
        cni_assert(!c.stagedSend.empty());
        wire = c.stagedSend.front().wireBytes();
        pullableBlocks = static_cast<int>(blocksFor(wire));
    } else {
        // Virtual polling: pull completed blocks of the slot still being
        // written.
        pullableBlocks = c.vpBlocksWritten;
    }
    if (c.pulledInSlot >= pullableBlocks)
        co_return false;

    const Addr slot = sendSlotAddr(ctx, c.devSendHead);
    const Addr a = slot + Addr(c.pulledInSlot) * kBlockBytes;
    co_await busyFor(kNiEngineCycles);
    // Coherent read: pulls the block out of the processor cache (unless
    // it was already flushed back to the device's home storage).
    co_await sendCache_->fetchBlock(a, false);
    c.pulledInSlot += 1;
    cSendBlocksPulled_.incr();

    if (slotCommitted &&
        c.pulledInSlot >= static_cast<int>(blocksFor(wire))) {
        NetMsg msg = std::move(c.stagedSend.front());
        c.stagedSend.pop_front();
        queueForInjection(std::move(msg));
        c.devSendHead += 1;
        c.pulledInSlot = 0;
    }
    co_return true;
}

void
detail::registerCniqModels(NiRegistry &r)
{
    for (const char *name : {"CNI16Q", "CNI512Q", "CNI16Qm"}) {
        const CniqConfig preset = *CniqConfig::preset(name);
        NiTraits t;
        t.coherent = true;
        t.queueBased = true;
        t.memoryHomedRecv = preset.recvHomeMemory;
        r.register_(name, t, [preset](const NiBuildContext &c) {
            CniqConfig qc = c.cniqOverride ? *c.cniqOverride : preset;
            qc.numContexts = c.numContexts;
            return std::make_unique<Cniq>(c.eq, c.node, c.coh, c.net,
                                          c.mem, c.name, qc);
        });
    }
}

} // namespace cni
