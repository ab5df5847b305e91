#include "coh/directory.hpp"

#include <algorithm>
#include <cstring>

#include "bus/address_map.hpp"
#include "mc/encode.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"

namespace cni
{

std::atomic<bool> DirectoryFabric::testSkipFwdDoneHold{false};

const char *
DirectoryFabric::opName(Op op)
{
    switch (op) {
      case Op::GetS:
        return "GetS";
      case Op::GetM:
        return "GetM";
      case Op::Upgrade:
        return "Upgrade";
      case Op::Writeback:
        return "Writeback";
      case Op::Fwd:
        return "Fwd";
      case Op::Inv:
        return "Inv";
      case Op::FwdAck:
        return "FwdAck";
      case Op::InvAck:
        return "InvAck";
      case Op::Grant:
        return "Grant";
      case Op::WbAck:
        return "WbAck";
      case Op::FwdData:
        return "FwdData";
      case Op::FwdDone:
        return "FwdDone";
    }
    return "?";
}

DirectoryFabric::DirectoryFabric(EventQueue &eq, NodeId node, int numNodes,
                                 Interconnect &net, const std::string &name,
                                 const DirParams &dir, bool pushUpdates)
    : CoherenceDomain(NiPlacement::MemoryBus), eq_(eq), node_(node),
      numNodes_(numNodes), net_(net), name_(name), cfg_(dir),
      pushUpdates_(pushUpdates), spec_(BusTimingSpec::memoryBus()),
      stats_(name + ".directory")
{
    cni_assert(cfg_.hops == 3 || cfg_.hops == 4);
    cni_assert(cfg_.entries >= 0 && cfg_.assoc >= 1);
    if (isSparse()) {
        cni_assert(cfg_.entries % cfg_.assoc == 0);
        numSets_ = cfg_.entries / cfg_.assoc;
        // Sparse homes always report the eviction counters — even when
        // a generously sized directory never recalls — so coverage
        // sweeps (and the CI smoke that greps for them) see explicit
        // zeros instead of missing keys.
        ctr_->dirEvictions.incr(0);
        ctr_->dirRecalls.incr(0);
        ctr_->dirRecallWritebacks.incr(0);
    }
    if (pushUpdates_) {
        // Likewise the update counters on update protocols.
        ctr_->updatesSent.incr(0);
        ctr_->uselessUpdates.incr(0);
        ctr_->modeFlips.incr(0); // pure update (dragon): stays 0 by design
    }
    net_.attachCoherence(node_, this);
}

int
DirectoryFabric::attachCache(BusAgent *agent)
{
    cni_assert(agent != nullptr && agents_[kCacheSlot] == nullptr);
    agents_[kCacheSlot] = agent;
    return kCacheSlot;
}

int
DirectoryFabric::attachHome(BusAgent *agent)
{
    cni_assert(agent != nullptr && memAgent_ == nullptr);
    memAgent_ = agent;
    return -1; // the home agent never issues requests
}

int
DirectoryFabric::attachNi(BusAgent *agent)
{
    cni_assert(agent != nullptr && agents_[kNiSlot] == nullptr);
    agents_[kNiSlot] = agent;
    return kNiSlot;
}

Addr
DirectoryFabric::globalize(Addr a) const
{
    // This node's private main memory is slice node_ of the global
    // physical space; NI addresses stay node-local (their home is this
    // node and they never appear in another node's directory).
    if (isMainMemory(a))
        return kGlobalMemBase + Addr(node_) * kMemSize + a;
    return a;
}

Addr
DirectoryFabric::localize(Addr g)
{
    if (g >= kGlobalMemBase)
        return (g - kGlobalMemBase) % kMemSize;
    return g;
}

NodeId
DirectoryFabric::homeOfGlobal(Addr g) const
{
    if (g >= kGlobalMemBase)
        return NodeId(((g - kGlobalMemBase) / kBlockBytes) %
                      Addr(numNodes_));
    return node_;
}

NodeId
DirectoryFabric::homeNodeOf(Addr a) const
{
    // Global memory blocks are interleaved across the machine's homes
    // round-robin; NI space (registers, CDRs, device-homed queues) is
    // homed at its node.
    return homeOfGlobal(globalize(blockAlign(a)));
}

BusAgent *
DirectoryFabric::homeAgentFor(Addr a) const
{
    return a >= kGlobalMemBase ? memAgent_ : agents_[kNiSlot];
}

void
DirectoryFabric::procIssue(const BusTxn &txn, Done done)
{
    issueFrom(txn, kCacheSlot, std::move(done));
}

void
DirectoryFabric::deviceIssue(const BusTxn &txn, Done done)
{
    issueFrom(txn, kNiSlot, std::move(done));
}

void
DirectoryFabric::uncachedIssue(const BusTxn &txn, Done done)
{
    // Register space is not coherent: a point-to-point access to the NI
    // over the node port, at the memory-bus uncached cost.
    const bool read = txn.kind == TxnKind::UncachedRead;
    (read ? ctr_->uncachedReads : ctr_->uncachedWrites).incr();
    const Tick occ = read ? spec_.uncachedRead : spec_.uncachedWrite;
    const Tick start = port_.reserve(eq_.now(), occ);
    eq_.scheduleAt(start + occ, [this, txn, done = std::move(done)] {
        cni_assert(agents_[kNiSlot] != nullptr);
        const SnoopReply r = agents_[kNiSlot]->onBusTxn(txn);
        SnoopResult res;
        res.homeFound = r.isHome;
        res.data = r.data;
        if (done)
            done(res);
    });
}

void
DirectoryFabric::issueFrom(const BusTxn &txn, int slot, Done done)
{
    if (txn.kind == TxnKind::UncachedRead ||
        txn.kind == TxnKind::UncachedWrite) {
        uncachedIssue(txn, std::move(done));
        return;
    }

    Op op;
    switch (txn.kind) {
      case TxnKind::ReadShared:
        op = Op::GetS;
        ctr_->getS.incr();
        break;
      case TxnKind::ReadExclusive:
        op = Op::GetM;
        ctr_->getM.incr();
        break;
      case TxnKind::Upgrade:
        op = Op::Upgrade;
        ctr_->upgrades.incr();
        break;
      case TxnKind::Writeback:
        op = Op::Writeback;
        ctr_->writebacks.incr();
        break;
      default:
        cni_fatal("%s: unroutable transaction kind", name_.c_str());
        return;
    }

    const Addr blk = blockAlign(txn.addr);
    const NodeId home = homeNodeOf(blk);
    (home == node_ ? ctr_->localHome : ctr_->remoteHome).incr();

    const std::uint32_t id = nextReq_++;
    pending_[id] =
        Pending{txn, slot, home != node_, eq_.now(), std::move(done)};

    CohWire w{};
    w.op = op;
    w.kind = std::uint8_t(txn.kind);
    w.flags = slot == kNiSlot ? kFromDevice : std::uint8_t(0);
    w.agent = globalAgent(node_, slot);
    w.reqId = id;
    w.addr = globalize(blk); // directories key the global physical space
    w.data = txn.data;       // writeback payload (value-invariant plumbing)

    // The request's address phase occupies the node port; a writeback
    // additionally carries its block out of the node.
    const bool block = op == Op::Writeback;
    const Tick occ = block ? spec_.blockFromProc : spec_.addressOnly;
    const Tick start = port_.reserve(eq_.now(), occ);
    eq_.scheduleAt(start + occ,
                   [this, home, w, block] { sendWire(home, w, block); });
}

void
DirectoryFabric::sendWire(NodeId dst, CohWire w, bool carriesBlock)
{
    const Interconnect::HoldHook &hold = net_.holdHook();
    if (dst == node_ && !hold) {
        eq_.scheduleIn(kLocalHopCycles,
                       [this, w] { dispatch(w, node_); });
        return;
    }
    static_assert(sizeof(CohWire) <= kBlockBytes,
                  "protocol header must fit a block payload");
    NetMsg m;
    m.src = node_;
    m.dst = dst;
    m.lane = NetMsg::Lane::Coherence;
    std::uint8_t buf[kBlockBytes] = {};
    std::memcpy(buf, &w, sizeof(CohWire));
    if (dst == node_) {
        // Model checking: node-local protocol hops are in-flight
        // messages too (the loopback is its own FIFO channel), so e.g.
        // a remote Inv can be explored overtaking a local FwdData
        // delivery. On release, netDeliver() dispatches it.
        m.payload.assign(buf, buf + sizeof(CohWire));
        hold(std::move(m), eq_.now() + kLocalHopCycles, opName(w.op));
        return;
    }
    // Data-carrying messages occupy a full block on the wire, so link
    // serialization sees the real transfer size.
    m.payload.assign(buf, buf + (carriesBlock ? kBlockBytes
                                              : sizeof(CohWire)));
    ctr_->protocolMsgs.incr();
    net_.inject(std::move(m));
}

bool
DirectoryFabric::netDeliver(const NetMsg &msg)
{
    cni_assert(msg.payload.size() >= sizeof(CohWire));
    CohWire w;
    std::memcpy(&w, msg.payload.data(), sizeof(CohWire));
    dispatch(w, msg.src);
    return true; // the coherence lane always accepts
}

void
DirectoryFabric::dispatch(const CohWire &w, NodeId from)
{
    switch (w.op) {
      case Op::GetS:
      case Op::GetM:
      case Op::Upgrade:
      case Op::Writeback:
        homeRequest(w, from);
        return;
      case Op::Fwd:
      case Op::Inv:
        peerApply(w, from);
        return;
      case Op::FwdAck:
      case Op::InvAck:
      case Op::FwdDone:
        homeAck(w, from);
        return;
      case Op::Grant:
      case Op::WbAck:
      case Op::FwdData:
        complete(w);
        return;
    }
    cni_fatal("%s: bad coherence opcode", name_.c_str());
}

BusTxn
DirectoryFabric::reconstructTxn(const CohWire &w, TxnKind kind) const
{
    BusTxn txn;
    txn.kind = kind;
    txn.addr = localize(w.addr); // caches and agents tag local addresses
    txn.initiator = (w.flags & kFromDevice) ? Initiator::Device
                                            : Initiator::Processor;
    txn.requesterId = -1;
    txn.data = w.data;
    return txn;
}

// ---------------------------------------------------------------------
// Home side
// ---------------------------------------------------------------------

bool
DirectoryFabric::needsEntry(const CohWire &w) const
{
    // Only main-memory blocks occupy sparse directory ways — NI device
    // space is home-local by construction. A writeback never allocates
    // durable tracking (its transient entry is erased at release), so
    // it must not stall on a full set either: a WB racing a recall of
    // its own block would otherwise deadlock behind the very eviction
    // that is waiting for it.
    return isSparse() && w.addr >= kGlobalMemBase &&
           w.op != Op::Writeback;
}

std::size_t
DirectoryFabric::setOf(Addr g) const
{
    cni_assert(isSparse() && g >= kGlobalMemBase);
    const Addr homeLocal =
        ((g - kGlobalMemBase) / kBlockBytes) / Addr(numNodes_);
    return std::size_t(homeLocal % Addr(numSets_));
}

int
DirectoryFabric::occupiedWays(std::size_t set) const
{
    // Transient writeback entries do not count against the cap: they
    // are about to vanish, and recalling a live way on their account
    // would be a spurious eviction.
    auto mit = setMembers_.find(set);
    if (mit == setMembers_.end())
        return 0;
    int occupied = 0;
    for (Addr a : mit->second) {
        if (!dir_.find(a)->second.transientWb)
            ++occupied;
    }
    return occupied;
}

Addr
DirectoryFabric::pickVictim(std::size_t set) const
{
    auto mit = setMembers_.find(set);
    cni_assert(mit != setMembers_.end());
    Addr victim = 0;
    std::uint64_t best = 0;
    for (Addr a : mit->second) {
        const auto it = dir_.find(a);
        cni_assert(it != dir_.end());
        if (it->second.busy)
            continue;
        if (victim == 0 || it->second.lru < best) {
            victim = a;
            best = it->second.lru;
        }
    }
    return victim; // 0 (never a global block) when every way is busy
}

void
DirectoryFabric::eraseMember(std::size_t set, Addr blk)
{
    auto mit = setMembers_.find(set);
    cni_assert(mit != setMembers_.end());
    auto &v = mit->second;
    auto pos = std::find(v.begin(), v.end(), blk);
    cni_assert(pos != v.end());
    v.erase(pos);
    if (v.empty())
        setMembers_.erase(mit);
}

void
DirectoryFabric::homeRequest(const CohWire &w, NodeId from)
{
    cni_assert(homeOfGlobal(w.addr) == node_);
    auto it = dir_.find(w.addr);
    if (it == dir_.end()) {
        if (needsEntry(w)) {
            const std::size_t set = setOf(w.addr);
            if (occupiedWays(set) >= cfg_.assoc) {
                const Addr victim = pickVictim(set);
                if (victim == 0) {
                    // Every way is mid-transaction: park the request on
                    // the set; the next release in it retries us.
                    ctr_->dirSetStalls.incr();
                    setWaiting_[set].emplace_back(w, from);
                    return;
                }
                startRecall(victim, w, from);
                return;
            }
        }
        if (isSparse() && w.addr >= kGlobalMemBase)
            setMembers_[setOf(w.addr)].push_back(w.addr);
        DirEntry fresh;
        fresh.transientWb =
            isSparse() && w.addr >= kGlobalMemBase &&
            w.op == Op::Writeback;
        it = dir_.emplace(w.addr, std::move(fresh)).first;
    }
    DirEntry &e = it->second;
    if (e.busy) {
        // The home serializes transactions per block, FIFO.
        ctr_->homeQueued.incr();
        e.waiting.emplace_back(w, from);
        return;
    }
    e.busy = true;
    startHomeTxn(w, from);
}

void
DirectoryFabric::startRecall(Addr victim, const CohWire &next,
                             NodeId nextFrom)
{
    DirEntry &e = dir_[victim];
    cni_assert(!e.busy);
    e.busy = true;
    ctr_->dirEvictions.incr();

    std::set<int> targets = e.sharers;
    if (e.owner >= 0)
        targets.insert(e.owner);
    // A resident non-busy entry always has a holder: untracked entries
    // are erased at release time.
    cni_assert(!targets.empty());

    HomeTxn &t = inflight_[victim];
    t.req = CohWire{};
    t.req.addr = victim;
    t.from = node_;
    t.pendingAcks = int(targets.size());
    t.gathered = 0;
    t.recall = true;
    t.next = next;
    t.nextFrom = nextFrom;
    t.probedOwner = e.owner;

    // The recall is a home-initiated read-exclusive: it invalidates
    // every sharer and makes a dirty owner supply its block, which
    // memory then absorbs — exactly the probes a GetM would send.
    for (int target : targets) {
        ctr_->dirRecalls.incr();
        CohWire probe{};
        probe.op = Op::Inv;
        probe.kind = std::uint8_t(TxnKind::ReadExclusive);
        probe.agent = slotOf(target);
        probe.aux = -1; // home-initiated: no requester behind it
        probe.addr = victim;
        sendWire(nodeOf(target), probe, /*carriesBlock=*/false);
    }
}

void
DirectoryFabric::finishRecall(Addr victim, std::uint8_t gathered,
                              std::uint64_t data, const CohWire &next,
                              NodeId nextFrom)
{
    DirEntry &e = dir_[victim];
    cni_assert(e.busy);
    e.owner = -1;
    e.sharers.clear();
    // A dirty owner's block comes home: memory absorbs it over the home
    // port. A clean eviction is address-only bookkeeping, free.
    Tick occ = 0;
    if (gathered & kSupplied) {
        ctr_->dirRecallWritebacks.incr();
        occ = spec_.blockFromProc;
        // The recalled value lands in memory like any writeback.
        BusAgent *homeAgent = homeAgentFor(victim);
        if (homeAgent != nullptr) {
            CohWire wb{};
            wb.op = Op::Writeback;
            wb.addr = victim;
            wb.data = data;
            homeAgent->onBusTxn(reconstructTxn(wb, TxnKind::Writeback));
        }
    }
    const Tick start = portStart(occ);
    eq_.scheduleAt(start + occ, [this, victim, next, nextFrom] {
        releaseEntry(victim);
        // Retry the allocation that forced the eviction (an overflow
        // trim has none). Its way is free unless the victim had waiters
        // (its entry then survives to serve them), in which case the
        // retry recalls another way or parks on the set.
        if (nextFrom >= 0)
            homeRequest(next, nextFrom);
    });
}

void
DirectoryFabric::startHomeTxn(CohWire w, NodeId from)
{
    ctr_->homeRequests.incr();
    // Directory lookup: an address phase on the home's port.
    const Tick start = port_.reserve(eq_.now(), spec_.addressOnly);
    eq_.scheduleAt(start + spec_.addressOnly,
                   [this, w, from] { processHome(w, from); });
}

void
DirectoryFabric::processHome(const CohWire &w, NodeId from)
{
    const Addr blk = w.addr;
    DirEntry &e = dir_[blk];
    cni_assert(e.busy);
    e.lru = ++lruSeq_; // service order drives sparse victim choice
    if (w.op != Op::Writeback)
        e.transientWb = false; // a queued request makes the entry durable

    // The home agent sees every transaction for its space, exactly as it
    // would on a broadcast bus: main memory counts reads/writebacks, an
    // NI home supplies from its internal caches and runs its snoop side
    // effects (virtual polling). Skipped when the home agent *is* the
    // requester (a bus never snoops the requester).
    std::uint8_t homeFlags = 0;
    std::uint64_t homeData = 0;
    BusAgent *homeAgent = homeAgentFor(blk);
    const bool requesterIsHomeAgent =
        nodeOf(w.agent) == node_ && blk < kGlobalMemBase &&
        slotOf(w.agent) == kNiSlot;
    if (homeAgent != nullptr && !requesterIsHomeAgent) {
        const SnoopReply r =
            homeAgent->onBusTxn(reconstructTxn(w, TxnKind(w.kind)));
        if (r.supplied)
            homeFlags |= kSupplied;
        if (r.hadCopy)
            homeFlags |= kHadCopy;
        if (r.transferOwnership)
            homeFlags |= kTransferOwner;
        homeData = r.data; // home's value at serialization time
    }

    switch (w.op) {
      case Op::Writeback: {
        // Absorb the block; tolerate stale state (the writer may have
        // been invalidated while the writeback was in flight).
        if (e.owner == w.agent)
            e.owner = -1;
        else
            e.sharers.erase(w.agent);
        const Tick occ = spec_.blockFromProc;
        const Tick start = port_.reserve(eq_.now(), occ);
        CohWire ack{};
        ack.op = Op::WbAck;
        ack.reqId = w.reqId;
        ack.addr = blk;
        eq_.scheduleAt(start + occ, [this, from, ack, blk] {
            sendWire(from, ack, /*carriesBlock=*/false);
            releaseEntry(blk);
        });
        return;
      }

      case Op::GetS: {
        if (e.owner >= 0 && e.owner != w.agent) {
            // A peer cache owns the block: probe it for the data. With
            // 3-hop forwarding the probe asks the owner to supply the
            // requester directly (kFwd3 + the requester's identity).
            ctr_->fwds.incr();
            HomeTxn &t = inflight_[blk];
            t.req = w;
            t.from = from;
            t.gathered = homeFlags;
            t.homeData = homeData;
            t.probedOwner = e.owner;
            t.threeHop = cfg_.hops == 3;
            // A 3-hop probe expects the owner's ack plus the
            // requester's FwdDone; the owner's ack cancels the latter
            // when it could not supply (see homeAck).
            t.pendingAcks =
                t.threeHop && !testSkipFwdDoneHold ? 2 : 1;
            CohWire probe{};
            probe.op = Op::Fwd;
            probe.kind = std::uint8_t(TxnKind::ReadShared);
            probe.flags = (w.flags & kFromDevice) |
                          (t.threeHop ? kFwd3 : std::uint8_t(0));
            probe.agent = slotOf(e.owner);
            probe.aux = w.agent;
            probe.reqId = w.reqId;
            probe.addr = blk;
            sendWire(nodeOf(e.owner), probe, /*carriesBlock=*/false);
            return;
        }
        finishGetS(blk, w, from, homeFlags, homeData);
        return;
      }

      case Op::GetM:
      case Op::Upgrade: {
        // An Upgrade whose requester the directory no longer lists lost
        // a race: its copy was invalidated (or recalled) while the
        // request was in flight, so permission alone would let it write
        // a line it does not hold — and an address-only invalidation of
        // the current owner would silently discard the freshest data.
        // Convert to a full GetM: probes apply ReadExclusive and the
        // grant carries the block (kConverted tells the requester).
        CohWire req = w;
        bool converted = false;
        if (w.op == Op::Upgrade && e.owner != w.agent &&
            e.sharers.count(w.agent) == 0) {
            converted = true;
            req.flags |= kConverted;
            ctr_->upgradeConversions.incr();
        }
        std::set<int> targets = e.sharers;
        if (e.owner >= 0)
            targets.insert(e.owner);
        targets.erase(req.agent);
        if (targets.empty()) {
            finishExclusive(blk, req, from, homeFlags, homeData);
            return;
        }
        HomeTxn &t = inflight_[blk];
        t.req = req;
        t.from = from;
        t.gathered = homeFlags;
        t.homeData = homeData;
        if (e.owner >= 0 && targets.count(e.owner))
            t.probedOwner = e.owner;
        // A lone dirty owner can short-circuit a GetM's data path: with
        // 3-hop forwarding it supplies the requester directly and the
        // home collects the owner's ack plus the requester's FwdDone.
        // Multi-sharer invalidations still gather at the home — the
        // requester must not proceed before every sharer acked.
        // Under an update protocol the sharers keep their copies, so
        // the 3-hop shortcut (owner supplies, then invalidates itself)
        // does not apply: a dirty owner's value returns through its ack
        // and the home grants, 4-hop style.
        t.threeHop = cfg_.hops == 3 && req.op == Op::GetM &&
                     targets.size() == 1 && e.owner >= 0 &&
                     *targets.begin() == e.owner && !pushUpdates_;
        t.pendingAcks = int(targets.size()) +
                        (t.threeHop && !testSkipFwdDoneHold ? 1 : 0);
        // GetM (and converted-Upgrade) probes apply ReadExclusive (a
        // dirty owner supplies); true Upgrade probes apply the
        // address-only invalidation, exactly like the corresponding bus
        // broadcasts. Update protocols push the written value instead:
        // every probe becomes a word update the sharer absorbs (a dirty
        // owner still supplies its pre-update block through the ack).
        const TxnKind probeKind =
            pushUpdates_ ? TxnKind::Update
                         : (req.op == Op::GetM || converted
                                ? TxnKind::ReadExclusive
                                : TxnKind::Upgrade);
        for (int target : targets) {
            (pushUpdates_ ? ctr_->updatesSent : ctr_->invs).incr();
            CohWire probe{};
            probe.op = Op::Inv;
            probe.kind = std::uint8_t(probeKind);
            probe.flags = (req.flags & kFromDevice) |
                          (t.threeHop ? kFwd3 : std::uint8_t(0));
            probe.agent = slotOf(target);
            probe.aux = req.agent;
            probe.reqId = req.reqId;
            probe.addr = blk;
            if (pushUpdates_)
                probe.data = req.data; // the pushed word value
            sendWire(nodeOf(target), probe, /*carriesBlock=*/false);
        }
        return;
      }

      default:
        cni_fatal("%s: bad home opcode", name_.c_str());
    }
}

void
DirectoryFabric::homeAck(const CohWire &w, NodeId from)
{
    (void)from;
    auto it = inflight_.find(w.addr);
    cni_assert(it != inflight_.end());
    HomeTxn &t = it->second;
    t.gathered |= w.flags & (kSupplied | kHadCopy | kTransferOwner);
    if (w.flags & kSupplied)
        t.data = w.data; // at most one supplier per transaction
    if ((w.op == Op::FwdAck || w.op == Op::InvAck) &&
        w.agent == t.probedOwner) {
        t.ownerHadCopy = w.flags & kHadCopy;
    }
    if (pushUpdates_ && !t.recall && w.op == Op::InvAck &&
        !(w.flags & kHadCopy)) {
        // The pushed update found no live copy: the sharer had silently
        // evicted the line, or (hybrid) its useless-update counter
        // saturated and it self-invalidated instead of absorbing the
        // value. Either way the update was wasted — drop the agent from
        // the directory now so the final grant's kSharersRemain and the
        // keep-set in finishExclusive reflect who actually holds data.
        ctr_->uselessUpdates.incr();
        auto dit = dir_.find(w.addr);
        if (dit != dir_.end()) {
            dit->second.sharers.erase(w.agent);
            if (dit->second.owner == w.agent)
                dit->second.owner = -1;
        }
    }
    int acked = 1;
    if (t.threeHop && (w.op == Op::FwdAck || w.op == Op::InvAck)) {
        if (w.flags & kFwd3) {
            t.fwdDataSent = true;
        } else if (!testSkipFwdDoneHold) {
            // The owner sent no FwdData (stale copy): the requester's
            // FwdDone will never come, so its expected ack is cancelled
            // here and the home falls back below.
            acked = 2;
        }
    }
    cni_assert(t.pendingAcks >= acked);
    t.pendingAcks -= acked;
    if (t.pendingAcks > 0)
        return;
    HomeTxn done = t;
    inflight_.erase(it);
    if (done.probedOwner >= 0 && !done.ownerHadCopy) {
        // The recorded owner acked without a copy. If its writeback is
        // already parked on the entry (per-channel FIFO: it left the
        // owner before the ack, so by now it is here), absorb it so the
        // grant below supplies the written-back value instead of stale
        // memory. No parked writeback means the copy was dropped clean
        // (silent E replacement) — memory is already fresh.
        std::uint64_t wbData = 0;
        if (absorbQueuedWriteback(w.addr, done.probedOwner, &wbData))
            done.homeData = wbData;
    }
    if (done.recall) {
        finishRecall(w.addr, done.gathered,
                     done.gathered & kSupplied ? done.data : done.homeData,
                     done.next, done.nextFrom);
        return;
    }
    if (done.threeHop && done.fwdDataSent) {
        // 3-hop: the owner already sent the block straight to the
        // requester (FwdData, whose receipt the FwdDone just
        // confirmed); the home commits the directory state and
        // unblocks the entry — no Grant, no data re-send.
        ctr_->cacheSupplies.incr();
        if (done.req.op == Op::GetS) {
            updateGetSDirectory(w.addr, done.req, done.gathered);
        } else {
            DirEntry &e = dir_[w.addr];
            e.owner = done.req.agent;
            e.sharers.clear();
        }
        releaseEntry(w.addr);
        return;
    }
    // 4-hop, or a 3-hop probe that found a stale owner (writeback in
    // flight): complete home-centrically — for the stale case memory
    // supplies and the Grant carries the block, self-healing the race.
    const std::uint64_t data =
        done.gathered & kSupplied ? done.data : done.homeData;
    if (done.req.op == Op::GetS)
        finishGetS(w.addr, done.req, done.from, done.gathered, data);
    else
        finishExclusive(w.addr, done.req, done.from, done.gathered, data);
}

bool
DirectoryFabric::absorbQueuedWriteback(Addr blk, int ownerAgent,
                                       std::uint64_t *dataOut)
{
    auto it = dir_.find(blk);
    if (it == dir_.end())
        return false;
    DirEntry &e = it->second;
    for (auto qit = e.waiting.begin(); qit != e.waiting.end(); ++qit) {
        if (qit->first.op != Op::Writeback ||
            qit->first.agent != ownerAgent) {
            continue;
        }
        const CohWire wb = qit->first;
        const NodeId wbFrom = qit->second;
        e.waiting.erase(qit);
        ctr_->wbAbsorbedOnFallback.incr();
        // Exactly the processing the parked writeback would have
        // received at the head of the queue, minus the entry release
        // (the transaction that triggered the absorption still holds
        // the entry): memory takes the value over the home port, the
        // directory forgets the writer, the WbAck goes out.
        BusAgent *homeAgent = homeAgentFor(blk);
        if (homeAgent != nullptr)
            homeAgent->onBusTxn(reconstructTxn(wb, TxnKind::Writeback));
        if (e.owner == wb.agent)
            e.owner = -1;
        else
            e.sharers.erase(wb.agent);
        const Tick occ = spec_.blockFromProc;
        const Tick start = port_.reserve(eq_.now(), occ);
        CohWire ack{};
        ack.op = Op::WbAck;
        ack.reqId = wb.reqId;
        ack.addr = blk;
        eq_.scheduleAt(start + occ, [this, wbFrom, ack] {
            sendWire(wbFrom, ack, /*carriesBlock=*/false);
        });
        if (dataOut != nullptr)
            *dataOut = wb.data;
        return true;
    }
    return false;
}

bool
DirectoryFabric::updateGetSDirectory(Addr blk, const CohWire &req,
                                     std::uint8_t gathered)
{
    DirEntry &e = dir_[blk];
    const bool supplied = gathered & kSupplied;
    const bool transfer = gathered & kTransferOwner;

    // Directory update mirrors the MOESI bus transitions: a supplying
    // owner keeps the block Owned (requester becomes a sharer) unless it
    // passed dirty ownership along (requester becomes the owner, the old
    // owner drops to a sharer); a stale owner that no longer had a copy
    // is dropped and memory supplies.
    const int oldOwner = e.owner;
    if (oldOwner >= 0 && oldOwner != req.agent && !(gathered & kHadCopy))
        e.owner = -1;
    if (transfer) {
        if (oldOwner >= 0 && oldOwner != req.agent)
            e.sharers.insert(oldOwner);
        e.owner = req.agent;
        e.sharers.erase(req.agent);
    } else if (oldOwner >= 0 && oldOwner != req.agent &&
               (gathered & kHadCopy) && !supplied) {
        // The probed owner had a copy but supplied nothing: it held the
        // line Exclusive-clean and the Fwd demoted it to Shared. Memory
        // is fresh and supplies; both parties are plain sharers now —
        // leaving it recorded as owner would probe it as a dirty
        // supplier later and lose.
        e.owner = -1;
        e.sharers.insert(oldOwner);
        e.sharers.insert(req.agent);
    } else if (e.owner != req.agent) {
        e.sharers.insert(req.agent);
    }

    bool otherSharer = supplied || (gathered & kHadCopy);
    for (int s : e.sharers) {
        if (s != req.agent)
            otherSharer = true;
    }
    if (e.owner >= 0 && e.owner != req.agent)
        otherSharer = true;
    if (!otherSharer && e.owner < 0) {
        // Sole copy, memory-supplied: the requester's cache installs
        // Exclusive (silently upgradable to M). Record it as the owner
        // — not a sharer — so a later transaction probes it for data
        // instead of assuming memory is fresh.
        e.sharers.erase(req.agent);
        e.owner = req.agent;
    }
    return otherSharer;
}

void
DirectoryFabric::finishGetS(Addr blk, const CohWire &req, NodeId from,
                            std::uint8_t gathered, std::uint64_t data)
{
    const bool supplied = gathered & kSupplied;
    const bool transfer = gathered & kTransferOwner;
    const bool otherSharer = updateGetSDirectory(blk, req, gathered);

    if (supplied)
        ctr_->cacheSupplies.incr();
    else
        ctr_->memorySupplies.incr();

    CohWire grant{};
    grant.op = Op::Grant;
    grant.reqId = req.reqId;
    grant.addr = blk;
    grant.data = data;
    if (supplied)
        grant.flags |= kSupplied;
    if (otherSharer)
        grant.flags |= kSharedCopy;
    if (transfer)
        grant.flags |= kTransferOwner;

    // Peer supply already paid its occupancy at the peer; a home supply
    // occupies the home port for the memory block transfer.
    Tick occ = 0;
    if (!supplied) {
        occ = blk >= kGlobalMemBase
                  ? spec_.blockFromMemory
                  : (req.flags & kFromDevice ? spec_.blockFromProc
                                             : spec_.blockToProc);
    }
    const Tick start = portStart(occ);
    eq_.scheduleAt(start + occ, [this, from, grant, blk] {
        sendWire(from, grant, /*carriesBlock=*/true);
        releaseEntry(blk);
    });
}

void
DirectoryFabric::finishExclusive(Addr blk, const CohWire &req, NodeId from,
                                 std::uint8_t gathered, std::uint64_t data)
{
    DirEntry &e = dir_[blk];
    const bool supplied = gathered & kSupplied;
    const bool hadCopy = gathered & kHadCopy;
    const bool converted = req.flags & kConverted;
    bool sharersRemain = false;
    if (pushUpdates_) {
        // Every sharer still listed absorbed the pushed value (homeAck
        // dropped the ones that did not); they keep their Sc copies. A
        // previous dirty owner was demoted to a sharer by the update
        // probe. The writer becomes the owner — Sm over live sharers,
        // plain M when the update round left nobody holding a copy.
        e.sharers.erase(req.agent);
        if (e.owner == req.agent)
            e.owner = -1;
        sharersRemain = e.owner >= 0 || !e.sharers.empty();
        if (e.owner >= 0)
            e.sharers.insert(e.owner);
        e.owner = req.agent;
    } else {
        e.owner = req.agent;
        e.sharers.clear();
    }

    if (req.op == Op::GetM || converted) {
        if (supplied)
            ctr_->cacheSupplies.incr();
        else
            ctr_->memorySupplies.incr();
    }

    CohWire grant{};
    grant.op = Op::Grant;
    grant.reqId = req.reqId;
    grant.addr = blk;
    grant.data = data;
    if (supplied)
        grant.flags |= kSupplied;
    if (hadCopy)
        grant.flags |= kSharedCopy;
    if (converted)
        grant.flags |= kConverted;
    if (sharersRemain)
        grant.flags |= kSharersRemain;

    // An upgrade is address-only — unless the home converted it to a
    // GetM; then, like a GetM without a cache supplier, the home pulls
    // the block from memory.
    const bool carriesBlock = req.op == Op::GetM || converted;
    Tick occ = 0;
    if (carriesBlock && !supplied) {
        occ = blk >= kGlobalMemBase
                  ? spec_.blockFromMemory
                  : (req.flags & kFromDevice ? spec_.blockFromProc
                                             : spec_.blockToProc);
    }
    const Tick start = portStart(occ);
    eq_.scheduleAt(start + occ, [this, from, grant, blk, carriesBlock] {
        sendWire(from, grant, carriesBlock);
        releaseEntry(blk);
    });
}

void
DirectoryFabric::releaseEntry(Addr blk)
{
    auto it = dir_.find(blk);
    cni_assert(it != dir_.end() && it->second.busy);
    DirEntry &e = it->second;
    e.busy = false;
    if (!e.waiting.empty()) {
        auto [w, from] = e.waiting.front();
        e.waiting.pop_front();
        e.busy = true;
        startHomeTxn(w, from);
        return;
    }
    const bool sparseBlk = isSparse() && blk >= kGlobalMemBase;
    const std::size_t set = sparseBlk ? setOf(blk) : 0;
    // Untracked entries are dropped so trackedBlocks() means "blocks
    // with cached copies" — and, sparse, so their way frees up.
    if (e.owner < 0 && e.sharers.empty()) {
        if (sparseBlk)
            eraseMember(set, blk);
        dir_.erase(it);
    }
    // A release can unstall an allocation parked on this set: either
    // the way just freed, or this entry became a recallable victim.
    if (sparseBlk) {
        auto sw = setWaiting_.find(set);
        if (sw != setWaiting_.end() && !sw->second.empty()) {
            auto [w, from] = sw->second.front();
            sw->second.pop_front();
            if (sw->second.empty())
                setWaiting_.erase(sw);
            homeRequest(w, from);
        }
        // A writeback entry revived by a queued request became durable
        // without passing the cap (homeRequest exempts WBs): trim the
        // overflow back to `assoc` ways with an ordinary recall so the
        // modeled storage bound holds.
        if (occupiedWays(set) > cfg_.assoc) {
            const Addr victim = pickVictim(set);
            if (victim != 0)
                startRecall(victim, CohWire{}, /*nextFrom=*/-1);
        }
    }
}

// ---------------------------------------------------------------------
// Peer side
// ---------------------------------------------------------------------

void
DirectoryFabric::peerApply(const CohWire &w, NodeId home)
{
    const int slot = w.agent;
    cni_assert(slot >= 0 && slot < kAgentsPerNode &&
               agents_[slot] != nullptr);
    (w.op == Op::Fwd ? ctr_->probesFwd : ctr_->probesInv).incr();
    const SnoopReply r =
        agents_[slot]->onBusTxn(reconstructTxn(w, TxnKind(w.kind)));
    if (r.invalidatedOnUpdate) {
        // Hybrid adaptation: this agent's useless-update counter
        // saturated, so it flipped the line from update mode to
        // invalidate mode (self-invalidated; its hadCopy=false ack
        // makes the home drop it from the sharer set).
        ctr_->modeFlips.incr();
    }

    CohWire ack{};
    ack.op = w.op == Op::Fwd ? Op::FwdAck : Op::InvAck;
    ack.agent = globalAgent(node_, slot); // who is acking (owner match)
    ack.addr = w.addr;
    ack.data = r.data;
    if (r.supplied) {
        ack.flags |= kSupplied;
        ctr_->probeSupplies.incr();
    }
    if (r.hadCopy)
        ack.flags |= kHadCopy;
    if (r.transferOwnership)
        ack.flags |= kTransferOwner;

    if ((w.flags & kFwd3) && r.supplied) {
        // 3-hop: the block goes straight to the requester; the home
        // gets an address-only ack in parallel (kFwd3 echoed = "FwdData
        // sent, expect the requester's FwdDone") and never re-sends the
        // data. A GetS supplier keeps a copy (M->O or ownership
        // transfer), so the requester sees a shared line; a GetM
        // supplier invalidated itself, so it does not.
        ctr_->fwd3Supplies.incr();
        ack.flags |= kFwd3;
        CohWire data{};
        data.op = Op::FwdData;
        data.reqId = w.reqId;
        data.addr = w.addr;
        data.data = r.data;
        data.flags = kSupplied;
        if (w.op == Op::Fwd)
            data.flags |= kSharedCopy;
        if (r.transferOwnership)
            data.flags |= kTransferOwner;
        const NodeId requester = nodeOf(w.aux);
        const Tick occ = spec_.blockFromProc;
        const Tick start = port_.reserve(eq_.now(), occ);
        eq_.scheduleAt(start + occ, [this, requester, data, home, ack] {
            sendWire(requester, data, /*carriesBlock=*/true);
            sendWire(home, ack, /*carriesBlock=*/false);
        });
        return;
    }

    // A supplying peer pushes the block out over its node port; a plain
    // invalidation is address-only.
    const Tick occ = r.supplied ? spec_.blockFromProc : spec_.addressOnly;
    const Tick start = port_.reserve(eq_.now(), occ);
    const bool carries = r.supplied;
    eq_.scheduleAt(start + occ, [this, home, ack, carries] {
        sendWire(home, ack, carries);
    });
}

// ---------------------------------------------------------------------
// Requester side
// ---------------------------------------------------------------------

void
DirectoryFabric::complete(const CohWire &w)
{
    auto it = pending_.find(w.reqId);
    cni_assert(it != pending_.end());
    Pending p = std::move(it->second);
    pending_.erase(it);

    SnoopResult res;
    res.homeFound = true;
    res.cacheSupplied = w.flags & kSupplied;
    res.sharedCopy = w.flags & kSharedCopy;
    res.ownershipTransferred = w.flags & kTransferOwner;
    res.upgradeFilled = w.flags & kConverted;
    res.sharersRemain = w.flags & kSharersRemain;
    res.data = w.data;

    // A data-carrying grant fills the line over the requester's port.
    // A converted upgrade's grant carries the block too.
    Tick occ = 0;
    if ((w.op == Op::Grant || w.op == Op::FwdData) &&
        (p.txn.kind != TxnKind::Upgrade || (w.flags & kConverted))) {
        occ = p.slot == kCacheSlot ? spec_.blockToProc
                                   : spec_.blockFromProc;
    }
    // Remote-miss latency: data misses whose home is another node — the
    // metric the 3-hop forwarding path exists to cut (fig_coverage).
    const bool remoteMiss =
        p.remoteHome && (p.txn.kind == TxnKind::ReadShared ||
                         p.txn.kind == TxnKind::ReadExclusive);
    // A forwarded block's installation is confirmed back to the home
    // (address-only FwdDone) so it holds the entry — and any queued
    // probe — until the data physically landed here. Sent after `done`
    // runs, so the line is installed before the home can release.
    const bool confirmFwd = w.op == Op::FwdData && !testSkipFwdDoneHold;
    const Addr blk = w.addr;
    const Tick start = portStart(occ);
    eq_.scheduleAt(start + occ, [this, res, remoteMiss, confirmFwd, blk,
                                 issued = p.issued,
                                 done = std::move(p.done)] {
        if (remoteMiss)
            ctr_->remoteMissLatency.sample(double(eq_.now() - issued));
        if (done)
            done(res);
        if (confirmFwd) {
            CohWire fin{};
            fin.op = Op::FwdDone;
            fin.addr = blk;
            sendWire(homeOfGlobal(blk), fin, /*carriesBlock=*/false);
        }
    });
}

// ---------------------------------------------------------------------
// Model-checking seam
// ---------------------------------------------------------------------

/**
 * Everything mcEncode fingerprints, copied by value. Pending::done
 * closures capture pointers to long-lived rig objects plus plain
 * values, so copying the std::function is a faithful save. (A
 * coroutine resumption would share its frame rather than copy it; the
 * MC rig runs no coroutines.)
 */
struct DirectoryFabric::McState
{
    std::uint32_t nextReq;
    std::uint64_t lruSeq;
    std::map<std::uint32_t, Pending> pending;
    std::map<Addr, DirEntry> dir;
    std::map<Addr, HomeTxn> inflight;
    std::map<std::size_t, std::vector<Addr>> setMembers;
    std::map<std::size_t, std::deque<std::pair<CohWire, NodeId>>>
        setWaiting;
};

std::shared_ptr<const void>
DirectoryFabric::mcSnapshot() const
{
    auto s = std::make_shared<McState>();
    s->nextReq = nextReq_;
    s->lruSeq = lruSeq_;
    s->pending = pending_;
    s->dir = dir_;
    s->inflight = inflight_;
    s->setMembers = setMembers_;
    s->setWaiting = setWaiting_;
    return s;
}

void
DirectoryFabric::mcRestore(const std::shared_ptr<const void> &snap)
{
    const auto *s = static_cast<const McState *>(snap.get());
    cni_assert(s != nullptr);
    nextReq_ = s->nextReq;
    lruSeq_ = s->lruSeq;
    pending_ = s->pending;
    dir_ = s->dir;
    inflight_ = s->inflight;
    setMembers_ = s->setMembers;
    setWaiting_ = s->setWaiting;
}

void
DirectoryFabric::encodeWireCanonical(McEncoder &enc, const CohWire &w) const
{
    enc.u8(std::uint8_t(w.op));
    enc.u8(w.kind);
    enc.u8(w.flags);
    switch (w.op) {
      case Op::GetS:
      case Op::GetM:
      case Op::Upgrade:
      case Op::Writeback:
        enc.agent(w.agent);
        enc.reqId(nodeOf(w.agent), w.reqId);
        break;
      case Op::Fwd:
      case Op::Inv:
        enc.u8(std::uint8_t(w.agent)); // target slot at the destination
        enc.agent(w.aux);              // requester (-1 on recalls)
        if (w.aux >= 0)
            enc.reqId(nodeOf(w.aux), w.reqId);
        break;
      case Op::FwdAck:
      case Op::InvAck:
        enc.agent(w.agent); // the acking agent
        break;
      case Op::Grant:
      case Op::WbAck:
      case Op::FwdData:
        // Completions are matched at their destination: this domain.
        enc.reqId(node_, w.reqId);
        break;
      case Op::FwdDone:
        break;
    }
    if (enc.knownBlock(w.addr))
        enc.block(w.addr);
    else
        enc.u64(w.addr); // NI-space address: node-local, never relabeled
    enc.token(w.data);
}

void
DirectoryFabric::mcEncodeWire(McEncoder &enc, const std::uint8_t *blob,
                              std::size_t len) const
{
    cni_assert(len >= sizeof(CohWire));
    CohWire w;
    std::memcpy(&w, blob, sizeof(CohWire));
    encodeWireCanonical(enc, w);
}

void
DirectoryFabric::mcEncode(McEncoder &enc) const
{
    // Directory entries in canonical block order.
    enc.tag('D');
    std::vector<std::pair<std::uint32_t, Addr>> order;
    for (const auto &kv : dir_)
        order.emplace_back(enc.blockCode(kv.first), kv.first);
    std::sort(order.begin(), order.end());
    enc.u32(std::uint32_t(order.size()));
    for (const auto &[code, addr] : order) {
        const DirEntry &e = dir_.at(addr);
        enc.u32(code);
        enc.agent(e.owner);
        std::vector<int> sh(e.sharers.begin(), e.sharers.end());
        std::sort(sh.begin(), sh.end(), [&enc](int a, int b) {
            return enc.agentKey(a) < enc.agentKey(b);
        });
        enc.u8(std::uint8_t(sh.size()));
        for (int s : sh)
            enc.agent(s);
        enc.u8(e.busy);
        enc.u8(e.transientWb);
        if (isSparse() && addr >= kGlobalMemBase) {
            // LRU enters as a recency rank within the set — victim
            // choice depends only on the order, never the raw stamps.
            int rank = 0;
            auto mit = setMembers_.find(setOf(addr));
            cni_assert(mit != setMembers_.end());
            for (Addr other : mit->second) {
                if (other != addr && dir_.at(other).lru < e.lru)
                    ++rank;
            }
            enc.u8(std::uint8_t(rank));
        }
        enc.u8(std::uint8_t(e.waiting.size()));
        for (const auto &[qw, qfrom] : e.waiting) {
            encodeWireCanonical(enc, qw);
            enc.node(qfrom);
        }
    }

    // Home transactions in flight.
    enc.tag('I');
    order.clear();
    for (const auto &kv : inflight_)
        order.emplace_back(enc.blockCode(kv.first), kv.first);
    std::sort(order.begin(), order.end());
    enc.u32(std::uint32_t(order.size()));
    for (const auto &[code, addr] : order) {
        const HomeTxn &t = inflight_.at(addr);
        enc.u32(code);
        enc.u8(t.recall);
        if (!t.recall) {
            encodeWireCanonical(enc, t.req);
            enc.node(t.from);
        }
        enc.u8(std::uint8_t(t.pendingAcks));
        enc.u8(t.gathered);
        enc.u8(t.threeHop);
        enc.u8(t.fwdDataSent);
        enc.token(t.data);
        enc.token(t.homeData);
        enc.agent(t.probedOwner);
        enc.u8(t.ownerHadCopy);
        enc.u8(t.nextFrom >= 0);
        if (t.nextFrom >= 0) {
            encodeWireCanonical(enc, t.next);
            enc.node(t.nextFrom);
        }
    }

    // Requester-side transactions awaiting completion (issue order —
    // deterministic and permutation-independent within this node).
    enc.tag('P');
    enc.u32(std::uint32_t(pending_.size()));
    for (const auto &[id, p] : pending_) {
        enc.reqId(node_, id);
        enc.u8(std::uint8_t(p.txn.kind));
        const Addr g = globalize(blockAlign(p.txn.addr));
        if (enc.knownBlock(g))
            enc.block(g);
        else
            enc.u64(g);
        enc.u8(std::uint8_t(p.slot));
        enc.token(p.txn.data);
    }

    // Allocations parked on full sparse sets.
    enc.tag('W');
    enc.u32(std::uint32_t(setWaiting_.size()));
    for (const auto &[set, q] : setWaiting_) {
        enc.u32(std::uint32_t(set));
        enc.u8(std::uint8_t(q.size()));
        for (const auto &[qw, qfrom] : q) {
            encodeWireCanonical(enc, qw);
            enc.node(qfrom);
        }
    }
}

bool
DirectoryFabric::mcQuiescent(std::string *why) const
{
    auto fail = [this, why](const char *what) {
        if (why != nullptr)
            *why = name_ + ": " + what;
        return false;
    };
    if (!pending_.empty())
        return fail("requester transaction still pending");
    if (!inflight_.empty())
        return fail("home transaction still in flight");
    for (const auto &[addr, e] : dir_) {
        (void)addr;
        if (e.busy)
            return fail("busy directory entry");
        if (!e.waiting.empty())
            return fail("requests queued on an idle entry");
    }
    if (!setWaiting_.empty())
        return fail("allocations parked on a sparse set");
    return true;
}

std::size_t
DirectoryFabric::mcParkDepth() const
{
    std::size_t depth = 0;
    for (const auto &[addr, e] : dir_) {
        (void)addr;
        depth = std::max(depth, e.waiting.size());
    }
    for (const auto &[set, q] : setWaiting_) {
        (void)set;
        depth = std::max(depth, q.size());
    }
    return depth;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

void
DirectoryFabric::reportCoherence(JsonWriter &w) const
{
    w.key("tracked_blocks").value(std::uint64_t(dir_.size()));
    w.key("port_busy_cycles").value(std::uint64_t(port_.busyCycles));
    w.key("port_wait_cycles").value(std::uint64_t(port_.waitCycles));
    w.key("counters").beginObject();
    for (const auto &[k, v] : stats_.counters())
        w.key(k).value(v);
    w.endObject();
}

} // namespace cni
