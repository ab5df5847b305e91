#include "mc/checker.hpp"

#include <algorithm>
#include <deque>
#include <ostream>
#include <set>

#include "bus/address_map.hpp"
#include "coh/directory.hpp"
#include "mc/encode.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"

namespace cni
{

namespace
{

const char *
actName(int a)
{
    switch (McChecker::Act(a)) {
      case McChecker::kRead:
        return "read";
      case McChecker::kWrite:
        return "write";
      case McChecker::kDrop:
        return "drop";
      case McChecker::kWriteback:
        return "writeback";
      case McChecker::kTouch:
        return "touch";
    }
    return "?";
}

const char *
slotName(int s)
{
    return s == 0 ? "cache" : "ni";
}

} // namespace

/**
 * Probe-side mirror of mem/cache.cpp's Cache::onBusTxn, with an explicit
 * value per line. The MOESI decisions are copied line for line (M/O
 * supply and demote to O on a ReadShared, E demotes to S, ReadExclusive
 * and Upgrade invalidate) so the backends see exactly the replies a real
 * cache would give — plus reply.data, which the real cache does not
 * model and the data-value invariant needs.
 */
struct McChecker::CacheMirror final : BusAgent
{
    McChecker *rig = nullptr;
    NodeId node = 0;
    int slot = 0;
    std::string name;

    SnoopReply
    onBusTxn(const BusTxn &txn) override
    {
        SnoopReply reply;
        const int j = rig->blockByLocal(blockAlign(txn.addr));
        if (j < 0)
            return reply;
        cni_assert(rig->blocks_[std::size_t(j)].req == node);
        Line &ln = rig->agentAt(node, slot).lines[std::size_t(j)];
        switch (txn.kind) {
          case TxnKind::UncachedRead:
          case TxnKind::UncachedWrite:
            return reply;
          case TxnKind::ReadShared:
            if (ln.st == St::I)
                return reply;
            reply.hadCopy = true;
            if (ln.st == St::M || ln.st == St::O) {
                reply.supplied = true;
                reply.data = ln.val;
                ln.st = St::O;
            } else if (ln.st == St::E) {
                ln.st = St::S;
            }
            return reply;
          case TxnKind::ReadExclusive:
            if (ln.st == St::I)
                return reply;
            reply.hadCopy = true;
            if (ln.st == St::M || ln.st == St::O) {
                reply.supplied = true;
                reply.data = ln.val;
            }
            ln.st = St::I;
            return reply;
          case TxnKind::Upgrade:
            if (ln.st == St::I)
                return reply;
            reply.hadCopy = true;
            ln.st = St::I;
            return reply;
          case TxnKind::Update: {
            // Mirror of the real cache's update-install path. The
            // threshold is armed only on the processor-cache slot,
            // exactly like Machine (device caches never flip).
            if (ln.st == St::I)
                return reply; // silently evicted; home drops us
            const int thr = slot == kCacheSlot ? rig->mirrThr_ : 0;
            if (thr > 0 && int(ln.unread) >= thr) {
                ln.st = St::I;
                ln.unread = 0;
                reply.invalidatedOnUpdate = true;
                return reply;
            }
            reply.hadCopy = true;
            if (ln.st == St::M || ln.st == St::O) {
                reply.supplied = true;
                reply.data = ln.val; // pre-update copy, freshest there is
            }
            ln.st = St::S;
            ln.val = txn.data; // absorb the pushed word
            if (ln.unread < 255)
                ++ln.unread;
            return reply;
          }
          case TxnKind::Writeback:
            return reply;
        }
        return reply;
    }

    const std::string &agentName() const override { return name; }
};

/**
 * The home/main-memory mirror: replies its current value for every
 * request (including Upgrades — a converted upgrade's grant may have to
 * carry the memory copy) and absorbs writeback data.
 */
struct McChecker::MemMirror final : BusAgent
{
    McChecker *rig = nullptr;
    NodeId node = 0;
    std::string name;

    SnoopReply
    onBusTxn(const BusTxn &txn) override
    {
        SnoopReply reply;
        const int j = rig->blockByLocal(blockAlign(txn.addr));
        if (j < 0)
            return reply;
        cni_assert(rig->blocks_[std::size_t(j)].home == node);
        reply.isHome = true;
        if (txn.kind == TxnKind::Writeback)
            rig->memVal_[std::size_t(j)] = txn.data;
        else
            reply.data = rig->memVal_[std::size_t(j)];
        return reply;
    }

    bool isHome(Addr a) const override { return isMainMemory(a); }
    const std::string &agentName() const override { return name; }
};

McChecker::McChecker(const McConfig &cfg)
    : cfg_(cfg),
      maxPark_(cfg.maxPark != 0 ? cfg.maxPark
                                : 2 * std::size_t(cfg.nodes))
{
    cni_assert(cfg_.nodes >= 1 && cfg_.nodes <= 8);
    cni_assert(cfg_.blocks >= 1 && cfg_.blocks <= 16);

    armedSeedBug_ = DirectoryFabric::testSkipFwdDoneHold;
    DirectoryFabric::testSkipFwdDoneHold = cfg_.seedBug;

    netParams_.topology = "mesh";
    netParams_.meshX = cfg_.nodes;
    netParams_.meshY = 1;
    net_ = NetRegistry::instance().make("mesh", eq_, cfg_.nodes,
                                        netParams_);

    const CoherenceTraits *traits =
        CoherenceRegistry::instance().traits(cfg_.backend);
    cni_assert(traits != nullptr);
    updateProtocol_ = traits->updateProtocol;
    mirrThr_ = traits->adaptiveUpdate ? cfg_.dir.updThreshold : 0;

    for (NodeId n = 0; n < cfg_.nodes; ++n) {
        CohBuildContext ctx{eq_,
                            n,
                            cfg_.nodes,
                            NiPlacement::MemoryBus,
                            *net_,
                            "mc" + std::to_string(n),
                            cfg_.dir};
        dom_.push_back(CoherenceRegistry::instance().make(cfg_.backend,
                                                          ctx));
    }

    agents_.resize(std::size_t(cfg_.nodes) * kSlots);
    for (AgentModel &ag : agents_)
        ag.lines.resize(std::size_t(cfg_.blocks));
    requesterIds_.resize(std::size_t(cfg_.nodes) * kSlots, -1);
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
        for (int slot = 0; slot < kSlots; ++slot) {
            auto m = std::make_unique<CacheMirror>();
            m->rig = this;
            m->node = n;
            m->slot = slot;
            m->name = "mc" + std::to_string(n) + "." + slotName(slot);
            const int id = slot == kCacheSlot
                               ? dom_[std::size_t(n)]->attachCache(m.get())
                               : dom_[std::size_t(n)]->attachNi(m.get());
            requesterIds_[std::size_t(n) * kSlots + std::size_t(slot)] =
                id;
            mirrors_.push_back(std::move(m));
        }
        auto mm = std::make_unique<MemMirror>();
        mm->rig = this;
        mm->node = n;
        mm->name = "mc" + std::to_string(n) + ".mem";
        dom_[std::size_t(n)]->attachHome(mm.get());
        mems_.push_back(std::move(mm));
    }

    buildBlocks();
    buildSymmetries();

    memVal_.assign(std::size_t(cfg_.blocks), 0);
    current_.assign(std::size_t(cfg_.blocks), 0);

    net_->setHoldHook([this](NetMsg msg, Tick arrival, const char *label) {
        const std::int32_t ch =
            std::int32_t(msg.src) * cfg_.nodes + msg.dst;
        held_.push_back(Held{ch, arrival, label, std::move(msg)});
    });
    root_ = snap();
}

McChecker::~McChecker()
{
    DirectoryFabric::testSkipFwdDoneHold = armedSeedBug_;
}

void
McChecker::buildBlocks()
{
    auto *dir0 = dynamic_cast<DirectoryFabric *>(dom_[0].get());
    std::set<int> usedIdx;
    for (int j = 0; j < cfg_.blocks; ++j) {
        BlockCfg b;
        b.req = NodeId(j % cfg_.nodes);
        b.ord = j / cfg_.nodes;
        // Pick the smallest unused local index whose home is remote —
        // indexes are globally unique so every block's node-local
        // (probe-space) address is distinct and the memory mirrors can
        // key on it unambiguously.
        for (int idx = 1;; ++idx) {
            if (usedIdx.count(idx) != 0)
                continue;
            b.local = kMemBase + Addr(idx) * kBlockBytes;
            if (dir0 != nullptr) {
                auto *d = dynamic_cast<DirectoryFabric *>(
                    dom_[std::size_t(b.req)].get());
                b.home = d->homeNodeOf(b.local);
                if (b.home == b.req && cfg_.nodes > 1)
                    continue; // want the remote-miss protocol paths
                b.globalKey = d->globalize(b.local);
            } else {
                b.home = b.req; // snoop: everything is node-local
                b.globalKey = b.local;
            }
            usedIdx.insert(idx);
            break;
        }
        byLocal_[b.local] = j;
        blocks_.push_back(b);
    }
}

void
McChecker::buildSymmetries()
{
    // A node relabeling pi is usable only if it maps the block plan onto
    // itself: every block must have a partner with the permuted
    // requester, the same per-node ordinal, and the permuted home. A
    // multi-set sparse directory would additionally need matching set
    // geometry, which the plan does not control — restrict to the
    // identity there (sound, just less reduction).
    const bool multiSet =
        cfg_.dir.entries > 0 && cfg_.dir.entries / cfg_.dir.assoc > 1;
    std::vector<int> perm(std::size_t(cfg_.nodes));
    for (int n = 0; n < cfg_.nodes; ++n)
        perm[std::size_t(n)] = n;
    do {
        bool identity = true;
        for (int n = 0; n < cfg_.nodes; ++n)
            identity = identity && perm[std::size_t(n)] == n;
        if (multiSet && !identity)
            continue;
        bool ok = true;
        for (const BlockCfg &b : blocks_) {
            bool found = false;
            for (const BlockCfg &c : blocks_) {
                if (c.req == NodeId(perm[std::size_t(b.req)]) &&
                    c.ord == b.ord) {
                    found = c.home == NodeId(perm[std::size_t(b.home)]);
                    break;
                }
            }
            ok = ok && found;
        }
        if (!ok)
            continue;
        std::vector<int> inv(std::size_t(cfg_.nodes));
        for (int n = 0; n < cfg_.nodes; ++n)
            inv[std::size_t(perm[std::size_t(n)])] = n;
        std::map<Addr, std::uint32_t> codes;
        for (const BlockCfg &b : blocks_) {
            codes[b.globalKey] =
                std::uint32_t(perm[std::size_t(b.req)]) *
                    std::uint32_t(cfg_.blocks) +
                std::uint32_t(b.ord);
        }
        perms_.push_back(perm);
        permInv_.push_back(std::move(inv));
        permCodes_.push_back(std::move(codes));
    } while (std::next_permutation(perm.begin(), perm.end()));
    cni_assert(!perms_.empty());
}

int
McChecker::blockByLocal(Addr a) const
{
    auto it = byLocal_.find(a);
    return it == byLocal_.end() ? -1 : it->second;
}

void
McChecker::fail(const std::string &what)
{
    violations_.push_back(what);
}

bool
McChecker::valCurrentOrPending(int block, std::uint64_t v) const
{
    if (v == current_[std::size_t(block)])
        return true;
    if (!updateProtocol_)
        return false;
    for (const AgentModel &ag : agents_) {
        if (ag.outstanding && ag.actBlock == block &&
            Act(ag.actKind) == kWrite && ag.wrVal == v)
            return true;
    }
    return false;
}

std::vector<McChecker::Held>::const_iterator
McChecker::headOf(std::int32_t channel) const
{
    return std::find_if(held_.begin(), held_.end(), [channel](const Held &h) {
        return h.channel == channel;
    });
}

std::vector<McStep>
McChecker::enumerate() const
{
    // Deliveries first, one per channel with a message in flight (its
    // FIFO head), in ascending channel order; then agent actions.
    std::vector<McStep> steps;
    for (std::int32_t ch = 0; ch < cfg_.nodes * cfg_.nodes; ++ch) {
        const auto head = headOf(ch);
        if (head == held_.end())
            continue;
        McStep s;
        s.deliver = true;
        s.channel = ch;
        s.label = head->label;
        steps.push_back(std::move(s));
    }
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
        for (int slot = 0; slot < kSlots; ++slot) {
            const AgentModel &ag =
                agents_[std::size_t(n) * kSlots + std::size_t(slot)];
            if (ag.outstanding)
                continue;
            for (int j = 0; j < cfg_.blocks; ++j) {
                if (blocks_[std::size_t(j)].req != n)
                    continue;
                const St st = ag.lines[std::size_t(j)].st;
                auto add = [&](Act a) {
                    McStep s;
                    s.node = n;
                    s.slot = slot;
                    s.block = j;
                    s.act = a;
                    steps.push_back(std::move(s));
                };
                add(kWrite); // legal from every state
                if (st == St::I)
                    add(kRead);
                if (st == St::S || st == St::E)
                    add(kDrop);
                if (st == St::O || st == St::M)
                    add(kWriteback);
                if (mirrThr_ > 0 && slot == kCacheSlot &&
                    st == St::S &&
                    ag.lines[std::size_t(j)].unread > 0)
                    add(kTouch);
            }
        }
    }
    return steps;
}

bool
McChecker::canApply(const McStep &s) const
{
    if (s.deliver)
        return headOf(s.channel) != held_.end();
    const AgentModel &ag =
        agents_[std::size_t(s.node) * kSlots + std::size_t(s.slot)];
    if (ag.outstanding)
        return false;
    const St st = ag.lines[std::size_t(s.block)].st;
    switch (Act(s.act)) {
      case kRead:
        return st == St::I;
      case kWrite:
        return true;
      case kDrop:
        return st == St::S || st == St::E;
      case kWriteback:
        return st == St::O || st == St::M;
      case kTouch:
        return mirrThr_ > 0 && s.slot == kCacheSlot && st == St::S &&
               ag.lines[std::size_t(s.block)].unread > 0;
    }
    return false;
}

void
McChecker::apply(const McStep &s)
{
    if (s.deliver) {
        // The message arrives when the timing model says it does, or
        // now if the explored order has already run past that tick.
        const auto head = headOf(s.channel);
        cni_assert(head != held_.end());
        eq_.scheduleAt(std::max(eq_.now(), head->arrival),
                       [this, m = head->msg]() mutable {
                           net_->deliverHeld(std::move(m));
                       });
        held_.erase(head);
    } else {
        applyAction(s);
    }
    eq_.run();
    checkInvariants();
}

void
McChecker::applyAction(const McStep &s)
{
    AgentModel &ag = agentAt(NodeId(s.node), s.slot);
    cni_assert(!ag.outstanding);
    Line &ln = ag.lines[std::size_t(s.block)];
    const Addr addr = blocks_[std::size_t(s.block)].local;

    TxnKind kind;
    std::uint64_t wrVal = 0;
    switch (Act(s.act)) {
      case kRead:
        cni_assert(ln.st == St::I);
        kind = TxnKind::ReadShared;
        break;
      case kWrite:
        wrVal = freshToken();
        if (ln.st == St::E || ln.st == St::M) {
            // Writable copy: the store hits silently (E -> M upgrade
            // without a transaction, exactly like the real cache).
            ln.st = St::M;
            ln.val = wrVal;
            current_[std::size_t(s.block)] = wrVal;
            return;
        }
        kind = ln.st == St::I ? TxnKind::ReadExclusive : TxnKind::Upgrade;
        break;
      case kDrop:
        cni_assert(ln.st == St::S || ln.st == St::E);
        ln.st = St::I;
        return;
      case kWriteback:
        cni_assert(ln.st == St::O || ln.st == St::M);
        kind = TxnKind::Writeback;
        break;
      case kTouch:
        // Load hit on an updated Shared line: no transaction, just the
        // counter reset the real cache performs in load().
        cni_assert(ln.st == St::S && ln.unread > 0);
        ln.unread = 0;
        return;
      default:
        cni_assert(!"bad action");
        return;
    }

    BusTxn t;
    t.kind = kind;
    t.addr = addr;
    t.initiator =
        s.slot == kNiSlot ? Initiator::Device : Initiator::Processor;
    t.requesterId =
        requesterIds_[std::size_t(s.node) * kSlots + std::size_t(s.slot)];
    if (kind == TxnKind::Writeback) {
        // Mirror of Cache::claimBlock/refill: invalidate the frame at
        // issue time; the value rides the transaction.
        t.data = ln.val;
        ln.st = St::I;
    }
    if (updateProtocol_ && Act(s.act) == kWrite) {
        // The written word rides the request so the home's Update probes
        // can push it to the sharers. Gated: plain-directory Pending
        // encodings (and thus fingerprints) must stay byte-identical.
        t.data = wrVal;
    }

    ag.outstanding = true;
    ag.actBlock = s.block;
    ag.actKind = s.act;
    ag.actTxn = kind;
    ag.wrVal = wrVal;

    const NodeId n = NodeId(s.node);
    const int slot = s.slot;
    const int block = s.block;
    const int act = s.act;
    dom_[std::size_t(n)]->issue(
        t, [this, n, slot, block, act, wrVal](const SnoopResult &r) {
            onComplete(n, slot, block, act, wrVal, r);
        });
}

void
McChecker::onComplete(NodeId n, int slot, int block, int kind,
                      std::uint64_t wrVal, const SnoopResult &r)
{
    AgentModel &ag = agentAt(n, slot);
    if (!ag.outstanding || ag.actBlock != block) {
        fail(std::string(slotName(slot)) + std::to_string(n) +
             ": completion with no matching outstanding transaction "
             "(duplicate or stray grant)");
        return;
    }
    const TxnKind txn = ag.actTxn;
    ag.outstanding = false;
    ag.actBlock = -1;
    Line &ln = ag.lines[std::size_t(block)];
    const std::string who =
        std::string(slotName(slot)) + std::to_string(n) + " block " +
        std::to_string(block);

    switch (Act(kind)) {
      case kRead:
        if (!valCurrentOrPending(block, r.data)) {
            fail(who + ": read filled a stale value (data-value "
                       "invariant)");
        }
        // Cache::refill's fill-state selection, verbatim.
        if (r.cacheSupplied && r.ownershipTransferred)
            ln.st = St::O;
        else if (r.cacheSupplied || r.sharedCopy)
            ln.st = St::S;
        else
            ln.st = St::E;
        ln.val = r.data;
        ln.unread = 0;
        return;
      case kWrite:
        if (txn == TxnKind::ReadExclusive) {
            if (!valCurrentOrPending(block, r.data))
                fail(who + ": read-to-own filled a stale value");
        } else if (ln.st != St::I) {
            // Permission-only upgrade: the retained copy must still be
            // the latest committed value (or, on an update backend, a
            // pushed word from a write still in flight).
            if (!valCurrentOrPending(block, ln.val))
                fail(who + ": upgrade granted over a stale copy");
        } else if (r.upgradeFilled) {
            if (!valCurrentOrPending(block, r.data))
                fail(who + ": converted upgrade filled a stale value");
        } else {
            fail(who + ": upgrade completed on an invalidated line "
                       "without a data fill");
            return;
        }
        // An update backend's grant says whether sharers absorbed the
        // pushed word and stayed: install Sm (Owned) then, Modified
        // otherwise — mirror of Cache::store.
        ln.st = r.sharersRemain ? St::O : St::M;
        ln.val = wrVal;
        ln.unread = 0;
        current_[std::size_t(block)] = wrVal;
        return;
      case kWriteback:
        return; // frame was invalidated at issue
      default:
        fail(who + ": unexpected completion kind");
        return;
    }
}

void
McChecker::checkInvariants()
{
    // SWMR + data value over the mirror copies.
    for (int j = 0; j < cfg_.blocks; ++j) {
        int dirtyOrExclusive = 0; // M, E, O holders
        int exclusive = 0;        // M, E holders
        int valid = 0;
        for (std::size_t a = 0; a < agents_.size(); ++a) {
            const Line &ln = agents_[a].lines[std::size_t(j)];
            if (ln.st == St::I)
                continue;
            ++valid;
            if (ln.st != St::S)
                ++dirtyOrExclusive;
            if (ln.st == St::M || ln.st == St::E)
                ++exclusive;
            if (!valCurrentOrPending(j, ln.val)) {
                fail("block " + std::to_string(j) +
                     ": a valid copy holds a stale value (SWMR/value)");
            }
        }
        if (dirtyOrExclusive > 1 || (exclusive > 0 && valid > 1)) {
            fail("block " + std::to_string(j) +
                 ": multiple writable/exclusive copies (SWMR)");
        }
    }

    // Bounded park/recall depth.
    for (const auto &d : dom_) {
        const std::size_t depth = d->mcParkDepth();
        maxParkSeen_ = std::max(maxParkSeen_, depth);
        if (depth > maxPark_) {
            fail("park/waiting depth " + std::to_string(depth) +
                 " exceeds bound " + std::to_string(maxPark_));
        }
    }

    // No stuck state: with no event scheduled and no message held,
    // everything must be fully quiescent.
    if (nothingInFlight()) {
        for (std::size_t a = 0; a < agents_.size(); ++a) {
            if (agents_[a].outstanding) {
                fail(std::string(slotName(int(a) % kSlots)) +
                     std::to_string(a / kSlots) +
                     ": transaction outstanding but no event can ever "
                     "complete it (stuck state)");
            }
        }
        for (const auto &d : dom_) {
            std::string why;
            if (!d->mcQuiescent(&why))
                fail("domain not quiescent at event exhaustion: " + why);
        }
    }
}

McChecker::RigSnap
McChecker::snap() const
{
    RigSnap s;
    s.eq = eq_.snapshot();
    s.held = held_;
    for (const auto &d : dom_)
        s.dom.push_back(d->mcSnapshot());
    s.agents = agents_;
    s.mem = memVal_;
    s.current = current_;
    s.nextToken = nextToken_;
    return s;
}

void
McChecker::restore(const RigSnap &s)
{
    eq_.restore(s.eq);
    held_ = s.held;
    for (std::size_t n = 0; n < dom_.size(); ++n)
        dom_[n]->mcRestore(s.dom[n]);
    agents_ = s.agents;
    memVal_ = s.mem;
    current_ = s.current;
    nextToken_ = s.nextToken;
}

void
McChecker::encodeState(McEncoder &enc, const std::vector<int> &perm,
                       const std::vector<int> &inv) const
{
    // Mirror-agent state, nodes visited in permuted-label order so the
    // walk is covariant with the relabeling.
    enc.tag('A');
    for (int out = 0; out < cfg_.nodes; ++out) {
        const NodeId raw = NodeId(inv[std::size_t(out)]);
        for (int slot = 0; slot < kSlots; ++slot) {
            const AgentModel &ag =
                agents_[std::size_t(raw) * kSlots + std::size_t(slot)];
            for (int ord = 0;; ++ord) {
                int j = -1;
                for (int k = 0; k < cfg_.blocks; ++k) {
                    if (blocks_[std::size_t(k)].req == raw &&
                        blocks_[std::size_t(k)].ord == ord) {
                        j = k;
                    }
                }
                if (j < 0)
                    break;
                const Line &ln = ag.lines[std::size_t(j)];
                enc.u8(std::uint8_t(ln.st));
                enc.token(ln.st == St::I ? 0 : ln.val);
                // Counter emitted only when it can influence behaviour
                // (legacy fingerprints stay byte-identical), normalized
                // to 0 on Invalid lines — every install resets it, so a
                // stale value there is unobservable.
                if (mirrThr_ > 0)
                    enc.u8(ln.st == St::I ? 0 : ln.unread);
            }
            if (ag.outstanding) {
                enc.u8(std::uint8_t(ag.actKind) + 1);
                enc.u32(std::uint32_t(
                    blocks_[std::size_t(ag.actBlock)].ord));
                enc.u8(std::uint8_t(ag.actTxn));
                enc.token(ag.wrVal);
            } else {
                enc.u8(0);
            }
        }
    }

    // Memory + last-committed values, blocks in permuted-code order.
    enc.tag('V');
    std::vector<int> order(blocks_.size());
    for (std::size_t j = 0; j < blocks_.size(); ++j)
        order[j] = int(j);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return enc.blockCode(blocks_[std::size_t(a)].globalKey) <
               enc.blockCode(blocks_[std::size_t(b)].globalKey);
    });
    for (int j : order) {
        enc.block(blocks_[std::size_t(j)].globalKey);
        enc.token(memVal_[std::size_t(j)]);
        enc.token(current_[std::size_t(j)]);
    }

    // Backend protocol state (directories, in-flight home txns, parks).
    enc.tag('D');
    for (int out = 0; out < cfg_.nodes; ++out)
        dom_[std::size_t(inv[std::size_t(out)])]->mcEncode(enc);

    // In-flight messages: per-channel FIFOs under the relabeled channel
    // ids, each payload canonically re-encoded by its destination domain.
    enc.tag('W');
    struct Wire
    {
        std::int32_t permCh;
        std::size_t order; //!< injection order: FIFO within a channel
        const NetMsg *msg;
    };
    std::vector<Wire> wires;
    wires.reserve(held_.size());
    for (const Held &h : held_) {
        const std::int32_t permCh =
            std::int32_t(perm[std::size_t(h.msg.src)]) * cfg_.nodes +
            perm[std::size_t(h.msg.dst)];
        wires.push_back(Wire{permCh, wires.size(), &h.msg});
    }
    std::sort(wires.begin(), wires.end(),
              [](const Wire &a, const Wire &b) {
                  if (a.permCh != b.permCh)
                      return a.permCh < b.permCh;
                  return a.order < b.order;
              });
    for (const Wire &w : wires) {
        enc.u32(std::uint32_t(w.permCh));
        dom_[std::size_t(w.msg->dst)]->mcEncodeWire(
            enc, w.msg->payload.data(), w.msg->payload.size());
    }
}

std::uint64_t
McChecker::fingerprint() const
{
    std::vector<std::uint8_t> best;
    for (std::size_t p = 0; p < perms_.size(); ++p) {
        McEncoder enc(perms_[p], permCodes_[p]);
        encodeState(enc, perms_[p], permInv_[p]);
        if (best.empty() || enc.bytes() < best)
            best = enc.bytes();
    }
    McEncoder h({}, {});
    for (std::uint8_t b : best)
        h.u8(b);
    return h.hash();
}

bool
McChecker::explore(bool breadthFirst, McResult &res)
{
    std::set<std::uint64_t> visited;

    restore(root_);
    violations_.clear();
    checkInvariants();
    if (!violations_.empty()) {
        res.violations = violations_;
        return true;
    }
    visited.insert(fingerprint());

    auto fullyQuiescent = [this]() {
        if (!nothingInFlight())
            return false;
        for (const AgentModel &ag : agents_) {
            if (ag.outstanding)
                return false;
        }
        return true;
    };

    if (breadthFirst) {
        struct BfsNode
        {
            RigSnap s;
            std::vector<McStep> path;
        };
        std::deque<BfsNode> frontier;
        frontier.push_back(BfsNode{snap(), {}});
        while (!frontier.empty()) {
            BfsNode node = std::move(frontier.front());
            frontier.pop_front();
            restore(node.s);
            const std::vector<McStep> steps = enumerate();
            for (const McStep &step : steps) {
                restore(node.s);
                violations_.clear();
                apply(step);
                ++res.transitions;
                if (!violations_.empty()) {
                    res.violations = violations_;
                    res.trace = node.path;
                    res.trace.push_back(step);
                    res.visited = visited.size();
                    return true;
                }
                if (!visited.insert(fingerprint()).second)
                    continue;
                if (visited.size() >= cfg_.maxStates) {
                    res.truncated = true;
                    continue;
                }
                if (fullyQuiescent())
                    ++res.terminals;
                BfsNode next;
                next.s = snap();
                next.path = node.path;
                next.path.push_back(step);
                frontier.push_back(std::move(next));
            }
        }
        res.visited = visited.size();
        return false;
    }

    struct Frame
    {
        RigSnap s;
        std::vector<McStep> steps;
        std::size_t next = 0;
        McStep via; //!< transition that reached this frame (root: none)
    };
    std::vector<Frame> stack;
    stack.push_back(Frame{snap(), enumerate(), 0, McStep{}});
    if (fullyQuiescent())
        ++res.terminals;

    while (!stack.empty()) {
        Frame &f = stack.back();
        if (f.next >= f.steps.size()) {
            stack.pop_back();
            continue;
        }
        const McStep step = f.steps[f.next++];
        restore(f.s);
        violations_.clear();
        apply(step);
        ++res.transitions;
        if (!violations_.empty()) {
            res.violations = violations_;
            for (std::size_t i = 1; i < stack.size(); ++i)
                res.trace.push_back(stack[i].via);
            res.trace.push_back(step);
            res.visited = visited.size();
            return true;
        }
        if (!visited.insert(fingerprint()).second)
            continue;
        if (visited.size() >= cfg_.maxStates ||
            stack.size() >= cfg_.maxDepth) {
            res.truncated = true;
            continue;
        }
        if (fullyQuiescent())
            ++res.terminals;
        stack.push_back(Frame{snap(), enumerate(), 0, step});
    }
    res.visited = visited.size();
    return false;
}

McResult
McChecker::check()
{
    McResult res;
    res.symmetries = perms_.size();
    maxParkSeen_ = 0;
    const bool violated = explore(/*breadthFirst=*/false, res);
    res.maxParkSeen = maxParkSeen_;
    if (!violated)
        return res;

    // Re-explore breadth-first for a guaranteed-minimal counterexample;
    // keep the DFS exploration statistics (they describe the space).
    McResult minimal;
    minimal.symmetries = perms_.size();
    if (explore(/*breadthFirst=*/true, minimal) &&
        minimal.trace.size() <= res.trace.size()) {
        res.trace = minimal.trace;
        res.violations = minimal.violations;
    }
    res.maxParkSeen = maxParkSeen_;
    return res;
}

McResult
McChecker::replay(const std::vector<McStep> &trace)
{
    McResult res;
    res.symmetries = perms_.size();
    restore(root_);
    violations_.clear();
    checkInvariants();
    for (const McStep &step : trace) {
        if (!violations_.empty())
            break;
        // A trace recorded against one protocol variant may stop being
        // executable on another (a message the fault produced no longer
        // exists, a grant now parks behind a hold). Stop at the longest
        // executable prefix — "clean" then means no step of the schedule
        // that could run violated anything.
        if (!canApply(step))
            break;
        apply(step);
        ++res.transitions;
        res.trace.push_back(step);
    }
    res.violations = violations_;
    res.maxParkSeen = maxParkSeen_;
    return res;
}

void
McChecker::writeJson(const McConfig &cfg, const McResult &res,
                     std::ostream &os)
{
    JsonWriter w;
    w.beginObject();
    w.key("backend").value(cfg.backend);
    w.key("nodes").value(cfg.nodes);
    w.key("blocks").value(cfg.blocks);
    w.key("dir_entries").value(cfg.dir.entries);
    w.key("dir_assoc").value(cfg.dir.assoc);
    w.key("dir_hops").value(cfg.dir.hops);
    w.key("hybrid_threshold").value(cfg.dir.updThreshold);
    w.key("seed_bug").value(cfg.seedBug);
    w.key("visited").value(res.visited);
    w.key("transitions").value(res.transitions);
    w.key("terminals").value(res.terminals);
    w.key("symmetries").value(res.symmetries);
    w.key("max_park").value(res.maxParkSeen);
    w.key("truncated").value(res.truncated);
    w.key("violations").beginArray();
    for (const std::string &v : res.violations)
        w.value(v);
    w.endArray();
    w.key("trace").beginArray();
    for (const McStep &s : res.trace) {
        w.beginObject();
        if (s.deliver) {
            w.key("deliver").beginObject();
            w.key("src").value(s.channel / cfg.nodes);
            w.key("dst").value(s.channel % cfg.nodes);
            w.key("op").value(s.label);
        } else {
            w.key("action").beginObject();
            w.key("node").value(s.node);
            w.key("agent").value(slotName(s.slot));
            w.key("block").value(s.block);
            w.key("op").value(actName(s.act));
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << w.str() << "\n";
}

} // namespace cni
