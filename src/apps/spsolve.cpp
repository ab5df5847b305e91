#include "apps/spsolve.hpp"

#include <memory>

#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace cni
{

namespace
{

constexpr std::uint32_t kEdgeHandler = kAppHandlerBase + 10;

/** The DAG and the solver's dynamic state, shared by every node program. */
struct SpsolveState
{
    std::vector<std::vector<int>> outEdges; // per element
    std::vector<int> indeg;
    std::vector<int> pending; // remaining in-count per element
    int completed = 0;
    int total = 0;
    Machine *sys = nullptr;
    SpsolveParams params;

    /// Elements are distributed in chunks of kChunk: successors within an
    /// edge span of 64 land on the next few nodes, so remote messages are
    /// both frequent and bursty toward a handful of destinations — the
    /// traffic pattern Section 4.2 describes.
    static constexpr int kChunk = 16;

    NodeId
    ownerOf(int e) const
    {
        return (e / kChunk) % sys->numNodes();
    }

    /** Element `e` received one input; fire it when ready. */
    CoTask<void>
    arrive(int e)
    {
        Proc &p = sys->proc(ownerOf(e));
        co_await p.delay(params.addCycles); // the double-word addition
        if (--pending[e] > 0)
            co_return;
        ++completed;
        // Propagate down every out-edge: remote edges are 12-byte active
        // messages, local edges invoke the handler directly.
        for (int succ : outEdges[e]) {
            const NodeId dst = ownerOf(succ);
            if (dst == ownerOf(e)) {
                co_await p.delay(4); // local call overhead
                co_await arrive(succ);
            } else {
                std::uint8_t payload[12] = {};
                payload[0] = static_cast<std::uint8_t>(succ & 0xff);
                co_await sys->endpoint(ownerOf(e))
                    .send(dst, kEdgeHandler, payload, sizeof(payload),
                          static_cast<std::uint64_t>(succ));
            }
        }
    }
};

CoTask<void>
nodeProgram(SpsolveState &st, NodeId me)
{
    // Fire this node's sources, interleaving polls so incoming handler
    // work proceeds concurrently (several messages in flight).
    for (int e = 0; e < st.total; ++e) {
        if (st.ownerOf(e) == me && st.indeg[e] == 0) {
            st.pending[e] = 1; // one synthetic arrival triggers it
            co_await st.arrive(e);
            co_await st.sys->endpoint(me).poll();
        }
    }
    // Any node's handler may complete the last element, which breaks
    // pollUntil's node-local predicate contract.
    co_await st.sys->endpoint(me).pollEachUntil(
        [&st] { return st.completed >= st.total; });
}

} // namespace

bool
spsolveRunsOn(const MachineSpec &spec, std::string *why)
{
    if (spec.threads < 1)
        return true;
    if (why)
        *why = "spsolve needs the serial kernel (threads 0): every node "
               "counts completed elements in one shared variable that "
               "every node's wait reads, and sharded-kernel nodes may "
               "share state only through barrier posts";
    return false;
}

AppResult
runSpsolve(Machine &sys, const SpsolveParams &p, const MeasureOpts &opts)
{
    std::string why;
    if (!spsolveRunsOn(sys.spec(), &why))
        cni_fatal("%s", why.c_str());
    auto st = std::make_unique<SpsolveState>();
    st->sys = &sys;
    st->params = p;
    st->total = p.elements;
    st->outEdges.resize(p.elements);
    st->indeg.assign(p.elements, 0);

    // Deterministic random DAG: edges go to strictly larger ids within a
    // bounded span, so the graph is acyclic with mostly short edges.
    Rng rng(p.seed);
    for (int e = 0; e < p.elements; ++e) {
        const int deg = 1 + static_cast<int>(rng.below(p.maxOutDegree));
        for (int k = 0; k < deg; ++k) {
            const int hi = std::min(p.elements - 1, e + p.edgeSpan);
            if (hi <= e)
                continue;
            const int succ =
                e + 1 + static_cast<int>(rng.below(hi - e));
            st->outEdges[e].push_back(succ);
            st->indeg[succ] += 1;
        }
    }
    st->pending = st->indeg;

    // Handler: one DAG edge arrival.
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
        sys.endpoint(n).onMessage(
            kEdgeHandler, [&st = *st](const UserMsg &u) -> CoTask<void> {
                co_await st.arrive(static_cast<int>(u.userTag));
            });
    }

    for (NodeId n = 0; n < sys.numNodes(); ++n)
        sys.spawn(n, nodeProgram(*st, n));

    AppResult res = measureApp(sys, opts);
    res.checksum = static_cast<std::uint64_t>(st->completed);
    return res;
}

} // namespace cni
