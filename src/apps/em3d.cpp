#include "apps/em3d.hpp"

#include "sim/random.hpp"

namespace cni
{

namespace
{

constexpr std::uint32_t kUpdateHandler = kAppHandlerBase + 30;
constexpr std::uint32_t kEm3dBarrier = kAppHandlerBase + 32;

struct Em3dState
{
    Machine *sys = nullptr;
    Em3dParams params;
    /// remoteEdges[phase][node] = list of destination machine nodes, one
    /// entry per remote graph edge owned by `node` in that phase.
    std::vector<std::vector<std::vector<NodeId>>> remoteEdges;
    /// localEdges[phase][node] = count of local updates.
    std::vector<std::vector<int>> localEdges;
    /// expected[phase][node] = remote updates arriving per iteration.
    std::vector<std::vector<int>> expected;
    /// received[node] = remote updates received so far (monotonic).
    std::vector<std::uint64_t> received;
};

CoTask<void>
nodeProgram(Em3dState &st, AmBarrier &bar, NodeId me)
{
    Machine &sys = *st.sys;
    std::uint64_t expectedSoFar = 0;
    for (int it = 0; it < st.params.iterations; ++it) {
        for (int phase = 0; phase < 2; ++phase) { // E then H
            // Local updates.
            co_await sys.proc(me).delay(
                Tick(st.localEdges[phase][me]) * st.params.updateCycles);
            // Remote updates: 12-byte active messages, many in flight.
            for (NodeId dst : st.remoteEdges[phase][me]) {
                std::uint8_t payload[12] = {};
                co_await sys.endpoint(me).send(dst, kUpdateHandler, payload,
                                               sizeof(payload));
            }
            // Wait for this phase's inbound updates.
            expectedSoFar += st.expected[phase][me];
            co_await sys.endpoint(me).pollUntil([&st, me, expectedSoFar] {
                return st.received[me] >= expectedSoFar;
            });
            co_await bar.wait(me);
        }
    }
}

} // namespace

AppResult
runEm3d(Machine &sys, const Em3dParams &p, const MeasureOpts &opts)
{
    auto st = std::make_unique<Em3dState>();
    st->sys = &sys;
    st->params = p;
    const int n = sys.numNodes();
    st->remoteEdges.assign(2, std::vector<std::vector<NodeId>>(n));
    st->localEdges.assign(2, std::vector<int>(n, 0));
    st->expected.assign(2, std::vector<int>(n, 0));
    st->received.assign(n, 0);

    // Build the bipartite graph: graph node g lives on machine node g % n;
    // E nodes update in phase 0, H nodes in phase 1.
    Rng rng(p.seed);
    for (int g = 0; g < p.graphNodes; ++g) {
        const int phase = (g < p.graphNodes / 2) ? 0 : 1;
        const NodeId owner = g % n;
        for (int e = 0; e < p.degree; ++e) {
            if (rng.chance(p.remoteFraction)) {
                const int offset = static_cast<int>(
                    rng.range(1, std::max(1, p.span)));
                const NodeId dst = (owner + offset) % n;
                if (dst == owner) {
                    st->localEdges[phase][owner] += 1;
                    continue;
                }
                st->remoteEdges[phase][owner].push_back(dst);
                st->expected[phase][dst] += 1;
            } else {
                st->localEdges[phase][owner] += 1;
            }
        }
    }

    for (NodeId i = 0; i < n; ++i) {
        sys.endpoint(i).onMessage(
            kUpdateHandler,
            [&st = *st, i](const UserMsg &) -> CoTask<void> {
                st.received[i] += 1;
                co_await st.sys->proc(i).delay(st.params.updateCycles);
            });
    }

    AmBarrier bar(sys, kEm3dBarrier);
    for (NodeId i = 0; i < n; ++i)
        sys.spawn(i, nodeProgram(*st, bar, i));

    AppResult res = measureApp(sys, opts);
    for (NodeId i = 0; i < n; ++i)
        res.checksum += st->received[i];
    return res;
}

} // namespace cni
