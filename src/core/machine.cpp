#include "core/machine.hpp"

#include <set>

#include "bus/fabric.hpp"
#include "ni/registry.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"

namespace cni
{

NodeSpec
MachineSpec::node(NodeId id) const
{
    NodeSpec resolved = defaults;
    auto it = overrides.find(id);
    if (it != overrides.end()) {
        const NodeOverride &o = it->second;
        if (o.ni)
            resolved.ni = *o.ni;
        if (o.contexts)
            resolved.contexts = *o.contexts;
        if (o.cniq)
            resolved.cniq = *o.cniq;
    }
    return resolved;
}

bool
MachineSpec::heterogeneous() const
{
    for (const auto &[id, o] : overrides) {
        if (o.ni && *o.ni != defaults.ni)
            return true;
    }
    return false;
}

std::string
MachineSpec::label() const
{
    std::string s;
    if (heterogeneous()) {
        // List the distinct models in node order, e.g. "CNI16Qm+CNI4".
        std::set<std::string> seen;
        for (NodeId id = 0; id < numNodes; ++id) {
            const std::string m = node(id).ni;
            if (seen.insert(m).second) {
                if (!s.empty())
                    s += "+";
                s += m;
            }
        }
    } else {
        s = defaults.ni;
    }
    s += "/";
    s += toString(placement);
    if (snarfing)
        s += "+snarf";
    if (net.topology != "ideal") {
        s += "/";
        s += net.topology;
    }
    if (coherence != "snoop") {
        s += "/";
        s += coherence;
    }
    if (dir.entries > 0) {
        s += "+dir" + std::to_string(dir.entries) + "x" +
             std::to_string(dir.assoc);
    }
    if (dir.hops == 3)
        s += "+3hop";
    const CoherenceTraits *ct =
        CoherenceRegistry::instance().traits(coherence);
    if (ct && ct->adaptiveUpdate)
        s += "+thr" + std::to_string(dir.updThreshold);
    return s;
}

bool
validHybridThreshold(long long threshold, std::string *why)
{
    const char *msg = nullptr;
    if (threshold < 1) {
        msg = "hybridThreshold must be >= 1 (sharers need at least one "
              "unread update before flipping)";
    } else if (threshold > 255) {
        msg = "hybridThreshold must be <= 255: the per-line unread-update "
              "counter saturates at 255, so a larger threshold could never "
              "fire";
    }
    if (msg && why)
        *why = msg;
    return msg == nullptr;
}

bool
MachineSpec::valid(std::string *why) const
{
    auto fail = [why](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    auto tooBig = [&fail](const char *what, unsigned long long v,
                          unsigned long long max) {
        return fail(std::string(what) + " (" + std::to_string(v) +
                    ") exceeds the supported maximum of " +
                    std::to_string(max));
    };

    if (numNodes < 1)
        return fail("a machine needs at least one node");
    // Upper bounds exist because specs now arrive over the network
    // (the sweep daemon): a "machine" of a billion nodes is a resource
    // exhaustion request, not an experiment.
    if (numNodes > kMaxNodes)
        return tooBig("numNodes", numNodes, kMaxNodes);

    if (!NetRegistry::instance().known(net.topology)) {
        return fail("unknown interconnect '" + net.topology +
                    "' (registered models: " +
                    NetRegistry::instance().namesCsv() + ")");
    }

    const CoherenceTraits *coh =
        CoherenceRegistry::instance().traits(coherence);
    if (!coh) {
        return fail("unknown coherence backend '" + coherence +
                    "' (registered backends: " +
                    CoherenceRegistry::instance().namesCsv() + ")");
    }
    if (coh->directory &&
        !NetRegistry::instance().traits(net.topology)->routed) {
        return fail("coherence backend '" + coherence +
                    "' routes its protocol over the fabric and needs a "
                    "routed interconnect (mesh, torus, xbar), not '" +
                    net.topology + "'");
    }
    if (coh->directory && placement == NiPlacement::IoBus) {
        return fail("coherence backend '" + coherence +
                    "' has no bridged I/O bus: place the NI on the "
                    "memory bus");
    }
    if (coh->directory && placement == NiPlacement::CacheBus) {
        return fail("coherence backend '" + coherence +
                    "' has no processor-local bus: place the NI on the "
                    "memory bus");
    }
    if (coh->directory && snarfing) {
        return fail("writeback snarfing rides snooping-bus broadcasts: "
                    "coherence backend '" + coherence +
                    "' cannot provide it");
    }
    if (dir.hops != 3 && dir.hops != 4) {
        return fail("dirHops must be 3 (owner forwards the requester "
                    "directly) or 4 (home-centric), not " +
                    std::to_string(dir.hops));
    }
    if (dir.entries < 0)
        return fail("dirEntries must be >= 0 (0 = exact full map)");
    if (dir.assoc < 1)
        return fail("dirAssoc must be >= 1");
    if (dir.entries > 0 && dir.entries % dir.assoc != 0) {
        return fail("dirEntries (" + std::to_string(dir.entries) +
                    ") must be a multiple of dirAssoc (" +
                    std::to_string(dir.assoc) + ")");
    }
    const bool dirKnobs =
        dir.entries != 0 || dir.assoc != DirParams{}.assoc ||
        dir.hops != DirParams{}.hops;
    if (dirKnobs && !coh->directory) {
        return fail("dirEntries/dirAssoc/dirHops configure a directory's "
                    "geometry: backend '" + coherence +
                    "' has no directory for them to shape");
    }
    if (dir.entries > kMaxDirEntries)
        return tooBig("dirEntries", dir.entries, kMaxDirEntries);
    if (!validHybridThreshold(dir.updThreshold, why))
        return false;
    if (dir.updThreshold != DirParams{}.updThreshold &&
        !coh->adaptiveUpdate) {
        return fail("hybridThreshold tunes the adaptive update backend's "
                    "flip point: backend '" + coherence +
                    "' never flips, so the knob would be silently "
                    "ignored (pick --coherence hybrid)");
    }
    if (net.window < 1)
        return fail("the sliding window needs at least one slot");
    if (net.window > kMaxWindow)
        return tooBig("window", net.window, kMaxWindow);
    if (net.latency < 1 || net.hopLatency < 1)
        return fail("fabric latencies must be at least one cycle");
    if (net.latency > kMaxNetCycles)
        return tooBig("netLatency", net.latency, kMaxNetCycles);
    if (net.retryInterval < 1)
        return fail("the congested-receiver retry interval must be at "
                    "least one cycle");
    if (net.retryInterval > kMaxNetCycles)
        return tooBig("netRetry", net.retryInterval, kMaxNetCycles);
    if (net.linkBw < 1)
        return fail("link bandwidth must be at least one byte per cycle");
    if (net.linkBw > kMaxLinkBw)
        return tooBig("linkBandwidth", net.linkBw, kMaxLinkBw);
    if (threads < 0)
        return fail("threads must be >= 0 (0 = classic serial kernel)");
    if (threads > kMaxThreads) {
        return fail("threads (" + std::to_string(threads) +
                    ") exceeds the supported maximum of " +
                    std::to_string(kMaxThreads) +
                    " host worker threads");
    }
    const bool dimmed = net.meshX > 0 || net.meshY > 0;
    // 64-bit product: two large ints could otherwise overflow to
    // exactly numNodes and smuggle an absurd grid past the check.
    if (dimmed &&
        (net.meshX < 1 || net.meshY < 1 ||
         static_cast<long long>(net.meshX) * net.meshY != numNodes)) {
        return fail("mesh dims " + std::to_string(net.meshX) + "x" +
                    std::to_string(net.meshY) + " do not cover " +
                    std::to_string(numNodes) + " nodes");
    }

    if (!overrides.empty()) {
        const NodeId lo = overrides.begin()->first;
        const NodeId hi = overrides.rbegin()->first;
        const NodeId bad = lo < 0 ? lo : hi;
        if (lo < 0 || hi >= numNodes) {
            return fail("per-node override targets node " +
                        std::to_string(bad) + " but the machine has " +
                        std::to_string(numNodes) + " nodes");
        }
    }

    const NiRegistry &reg = NiRegistry::instance();
    for (NodeId id = 0; id < numNodes; ++id) {
        const NodeSpec ns = node(id);
        const std::string at = " (node " + std::to_string(id) + ")";
        const NiTraits *t = reg.traits(ns.ni);
        if (!t) {
            return fail("unknown NI model '" + ns.ni +
                        "' (registered models: " + reg.namesCsv() + ")" +
                        at);
        }
        if (ns.cniq && !t->queueBased) {
            return fail("a cniq() override requires a CNIiQ-family "
                        "model: " +
                        ns.ni + " would silently ignore it" + at);
        }
        // A CNIiQ override can re-home the receive queue, so validate
        // the effective device, not just the model name's static trait.
        NiTraits eff = *t;
        if (ns.cniq && t->queueBased)
            eff.memoryHomedRecv = ns.cniq->recvHomeMemory;
        if (placement == NiPlacement::CacheBus && t->coherent) {
            return fail("coherence is not an option on cache buses "
                        "(Section 5): place " +
                        ns.ni + " on the memory or I/O bus" + at);
        }
        if (placement == NiPlacement::IoBus && eff.memoryHomedRecv) {
            return fail("an I/O device cannot coherently cache processor "
                        "memory across a coherent I/O bus (Section 2.3): "
                        "use " +
                        ns.ni + " on the memory bus" + at);
        }
        if (snarfing && !eff.memoryHomedRecv) {
            return fail("snarfing targets memory-homed receive-queue "
                        "writebacks (Section 5.1.2): " +
                        ns.ni + " has none" + at);
        }
        if (ns.contexts < 1)
            return fail("each node needs at least one context" + at);
        if (ns.contexts > kMaxContexts) {
            return fail("contexts (" + std::to_string(ns.contexts) +
                        ") exceeds the supported maximum of " +
                        std::to_string(kMaxContexts) + at);
        }
        if (ns.contexts > 1 && !t->queueBased) {
            return fail("multiple contexts require the CNIiQ family's "
                        "per-context queues: " +
                        ns.ni + " exposes a single hardware FIFO" + at);
        }
    }
    return true;
}

Machine
MachineBuilder::build() const
{
    return Machine(spec_);
}

Machine::Machine(MachineSpec spec) : spec_(std::move(spec))
{
    std::string why;
    if (!spec_.valid(&why))
        cni_fatal("invalid machine description %s: %s",
                  spec_.label().c_str(), why.c_str());

    if (spec_.threads > 0)
        kernel_ = std::make_unique<ParallelKernel>(spec_.numNodes,
                                                   spec_.threads);

    net_ = NetRegistry::instance().make(spec_.net.topology, eq_,
                                        spec_.numNodes, spec_.net);
    if (kernel_) {
        net_->bindShards(kernel_.get());
        kernel_->setLookahead(net_->minLatency());
    }
    group_ = std::make_unique<TaskGroup>(eq_);
    tasksOn_.assign(spec_.numNodes, 0);

    // Idle-poll fast-forward needs one global event order (the serial
    // kernel) and a coherence backend whose lines only the node's own
    // bus can touch: a fabric-borne protocol (a sparse directory's
    // recall, an update push) can reach a polled line at any time.
    const CoherenceTraits *cohTraits =
        CoherenceRegistry::instance().traits(spec_.coherence);
    const bool fastForward = !kernel_ && !cohTraits->directory;

    for (NodeId id = 0; id < spec_.numNodes; ++id) {
        const NodeSpec ns = spec_.node(id);
        auto node = std::make_unique<Node>();
        const std::string name = "node" + std::to_string(id);
        // Every node-local component schedules on the node's queue: the
        // shard queue under the sharded kernel, the global one otherwise.
        EventQueue &neq = eq(id);
        node->mem = std::make_unique<NodeMemory>();
        CohBuildContext cohCtx{neq,  id,   spec_.numNodes,
                               spec_.placement, *net_, name, spec_.dir};
        node->coh =
            CoherenceRegistry::instance().make(spec_.coherence, cohCtx);
        node->mainMem = std::make_unique<MainMemory>(name + ".memory");
        node->coh->attachHome(node->mainMem.get());
        node->proc = std::make_unique<Proc>(neq, id, *node->coh,
                                            *node->mem, name + ".proc");
        if (spec_.snarfing)
            node->proc->cache().setSnarfing(true);
        if (cohTraits->adaptiveUpdate)
            node->proc->cache().setUpdateThreshold(spec_.dir.updThreshold);

        NiBuildContext ctx{neq,
                           id,
                           *node->coh,
                           *net_,
                           *node->mem,
                           name + "." + ns.ni,
                           ns.contexts,
                           ns.cniq ? &*ns.cniq : nullptr};
        node->ni = NiRegistry::instance().make(ns.ni, ctx);
        node->ni->attachToBus();

        // A skip lands past one idle wait plus one quiet poll period
        // and before now + minLatency(). The shortest period any NI has
        // is a CNIiQ's (two cache hits and the idle loop; an NI2w or
        // CNI4 status load takes 4 cycles on the cache bus, 28 on the
        // memory bus): on a fabric whose fastest hop is no longer than
        // that (a serial mesh or torus), no poll could ever be skipped.
        const bool armed =
            fastForward &&
            net_->minLatency() >
                2 * (kIdlePollCycles + kCacheHitCycles);
        for (int c = 0; c < ns.contexts; ++c) {
            node->endpoints.push_back(
                std::make_unique<Endpoint>(*node->proc, *node->ni, c));
            if (armed) {
                node->endpoints.back()->setPollHorizon(
                    [this, id] { return pollHorizon(id); });
            }
        }
        nodes_.push_back(std::move(node));
    }
}

Machine::~Machine() = default;

void
Machine::spawn(NodeId n, CoTask<void> task)
{
    cni_assert(n >= 0 && n < spec_.numNodes);
    ++tasksOn_[n];
    for (const auto &e : node(n).endpoints) {
        if (e->fastForwarding())
            cni_panic("spawn onto node %d in a fast-forwarded idle spin", n);
    }
    group_->spawn(std::move(task));
}

Tick
Machine::pollHorizon(NodeId n) const
{
    if (!running_ || tasksOn_[n] != 1)
        return 0;
    return std::min(net_->dataHorizon(n), runLimit_);
}

Tick
Machine::run()
{
    if (kernel_) {
        const Tick t = kernel_->run([this] { return group_->done(); },
                                    spec_.label());
        net_->foldShardCounters();
        return t;
    }
    running_ = true;
    bool ok = eq_.runUntilDone([this] { return group_->done(); });
    running_ = false;
    if (!ok) {
        cni_fatal("workload deadlocked: %d task(s) never finished (%s)",
                  group_->live(), spec_.label().c_str());
    }
    return eq_.now();
}

Tick
Machine::runUntil(Tick limit)
{
    if (kernel_) {
        const Tick t = kernel_->runUntil(
            limit, [this] { return group_->done(); });
        net_->foldShardCounters();
        return t;
    }
    // Every event before `limit` runs, then the first one at or past
    // it: a fast-forward must land before `limit` to stop in the same
    // place.
    running_ = true;
    runLimit_ = limit;
    while (eq_.now() < limit && !group_->done()) {
        if (!eq_.step())
            break;
    }
    running_ = false;
    runLimit_ = EventQueue::kNoEvent;
    return eq_.now();
}

Tick
Machine::memBusOccupiedCycles() const
{
    Tick total = 0;
    for (const auto &n : nodes_)
        total += n->coh->memBusOccupiedCycles();
    return total;
}

StatSet
Machine::aggregateStats() const
{
    StatSet agg("machine");
    for (const auto &n : nodes_) {
        n->coh->mergeStats(agg);
        agg.merge(n->proc->cache().stats());
        agg.merge(n->proc->stats());
        agg.merge(n->ni->stats());
        for (const auto &e : n->endpoints)
            agg.merge(e->stats());
    }
    agg.merge(net_->stats());
    return agg;
}

std::string
Machine::report() const
{
    net_->foldShardCounters(); // no-op on the classic serial kernel
    JsonWriter w;
    w.beginObject();

    w.key("config").beginObject();
    w.key("label").value(spec_.label());
    w.key("nodes").value(spec_.numNodes);
    w.key("placement").value(toString(spec_.placement));
    w.key("snarfing").value(spec_.snarfing);
    w.key("heterogeneous").value(spec_.heterogeneous());
    w.key("node_models").beginArray();
    for (NodeId id = 0; id < spec_.numNodes; ++id) {
        const NodeSpec ns = spec_.node(id);
        w.beginObject();
        w.key("id").value(id);
        w.key("ni").value(ns.ni);
        w.key("contexts").value(ns.contexts);
        if (ns.cniq) {
            w.key("cniq").beginObject();
            w.key("send_queue_blocks").value(ns.cniq->sendQueueBlocks);
            w.key("recv_queue_blocks").value(ns.cniq->recvQueueBlocks);
            w.key("recv_cache_blocks").value(ns.cniq->recvCacheBlocks);
            w.key("recv_home_memory").value(ns.cniq->recvHomeMemory);
            w.key("lazy_send_head").value(ns.cniq->lazySendHead);
            w.key("msg_valid_bits").value(ns.cniq->msgValidBits);
            w.key("sense_reverse").value(ns.cniq->senseReverse);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject(); // config

    w.key("net").beginObject();
    w.key("kind").value(net_->kind());
    w.key("params").beginObject();
    w.key("latency").value(std::uint64_t(spec_.net.latency));
    w.key("window").value(spec_.net.window);
    w.key("retry_interval").value(std::uint64_t(spec_.net.retryInterval));
    w.key("hop_latency").value(std::uint64_t(spec_.net.hopLatency));
    w.key("link_bw").value(std::uint64_t(spec_.net.linkBw));
    w.key("blocked_send_backoff").value(std::uint64_t(kBlockedSendBackoff));
    w.endObject();
    w.key("delivery_retries")
        .value(net_->stats().counter("delivery_retries"));
    w.key("retry_wait_cycles")
        .value(net_->stats().counter("retry_wait_cycles"));
    net_->reportTopology(w); // model-specific: links, ports, dims
    w.endObject(); // net

    // The "coherence" section is backend-provided. The snoop default
    // contributes none: its stats already flow through the bus
    // StatSets, and pre-registry reports must stay byte-identical.
    const CoherenceTraits *ct =
        CoherenceRegistry::instance().traits(spec_.coherence);
    if (ct && ct->directory) {
        w.key("coherence").beginObject();
        w.key("kind").value(spec_.coherence);
        w.key("dir_entries").value(spec_.dir.entries);
        w.key("dir_assoc").value(spec_.dir.assoc);
        w.key("dir_hops").value(spec_.dir.hops);
        // Key present only for adaptive backends: plain-directory (and
        // dragon) reports stay byte-identical to previous releases.
        if (ct->adaptiveUpdate)
            w.key("hybrid_threshold").value(spec_.dir.updThreshold);
        w.key("nodes").beginArray();
        for (NodeId id = 0; id < spec_.numNodes; ++id) {
            w.beginObject();
            w.key("node").value(id);
            nodes_[id]->coh->reportCoherence(w);
            w.endObject();
        }
        w.endArray();
        w.endObject(); // coherence
    }

    // The kernel section deliberately omits the host thread count: it
    // holds only thread-count-independent values, so reports from
    // --threads 1 and --threads N runs diff clean (the determinism CI
    // job relies on this).
    w.key("kernel").beginObject();
    if (kernel_) {
        w.key("mode").value("sharded");
        w.key("lookahead").value(std::uint64_t(kernel_->lookahead()));
        w.key("windows").value(kernel_->windows());
        w.key("barrier_posts").value(kernel_->barrierPosts());
        w.key("shards").beginArray();
        for (int s = 0; s < kernel_->numShards(); ++s) {
            w.beginObject();
            w.key("shard").value(s);
            w.key("executed").value(kernel_->shardExecuted(s));
            w.key("stalled_windows")
                .value(kernel_->shardStalledWindows(s));
            w.endObject();
        }
        w.endArray();
    } else {
        // Fast-forwarded polls are events the kernel never ran: the
        // per-poll loop would have executed executed + events_elided.
        std::uint64_t polls = 0;
        std::uint64_t events = 0;
        for (const auto &n : nodes_) {
            for (const auto &e : n->endpoints) {
                polls += e->pollsElided();
                events += e->eventsElided();
            }
        }
        w.key("mode").value("serial");
        w.key("executed").value(eq_.executed());
        w.key("polls_elided").value(polls);
        w.key("events_elided").value(events);
    }
    w.endObject(); // kernel

    w.key("runtime").beginObject();
    w.key("now_cycles").value(std::uint64_t(now()));
    w.key("now_us").value(now() / kCyclesPerMicrosecond);
    w.key("membus_occupied_cycles")
        .value(std::uint64_t(memBusOccupiedCycles()));
    w.key("workload_done").value(workloadDone());
    w.endObject();

    const StatSet agg = aggregateStats();
    w.key("stats").beginObject();
    w.key("counters").beginObject();
    for (const auto &[k, v] : agg.counters())
        w.key(k).value(v);
    w.endObject();
    w.key("scalars").beginObject();
    for (const auto &[k, s] : agg.scalars()) {
        w.key(k).beginObject();
        w.key("count").value(s.count());
        w.key("sum").value(s.sum());
        w.key("mean").value(s.mean());
        w.key("min").value(s.min());
        w.key("max").value(s.max());
        w.endObject();
    }
    w.endObject();
    w.endObject(); // stats

    w.endObject();
    return w.str();
}

} // namespace cni
