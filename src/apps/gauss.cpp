#include "apps/gauss.hpp"

namespace cni
{

namespace
{

constexpr std::uint32_t kPivotHandler = kAppHandlerBase + 20;
constexpr std::uint32_t kGaussBarrier = kAppHandlerBase + 22;

struct GaussState
{
    Machine *sys = nullptr;
    GaussParams params;
    std::vector<std::uint64_t> pivotSeen; // per node: pivots received
};

CoTask<void>
nodeProgram(GaussState &st, AmBarrier &bar, NodeId me)
{
    Machine &sys = *st.sys;
    const int n = sys.numNodes();
    const std::size_t rowBytes = std::size_t(st.params.columns) * 4;
    std::vector<std::uint8_t> row(rowBytes, std::uint8_t(me));

    for (int k = 0; k < st.params.pivots; ++k) {
        const NodeId owner = k % n;
        if (owner == me) {
            // Compute the pivot row, then broadcast it one-to-all.
            co_await sys.proc(me).delay(st.params.eliminateCyclesPerRow);
            for (NodeId d = 0; d < n; ++d) {
                if (d == me)
                    continue;
                co_await sys.endpoint(me).send(d, kPivotHandler, row.data(),
                                               rowBytes,
                                               static_cast<std::uint64_t>(k));
            }
        } else {
            // Wait for this pivot's row to arrive.
            co_await sys.endpoint(me).pollUntil([&st, me, k] {
                return st.pivotSeen[me] >= std::uint64_t(k) + 1;
            });
        }
        // Local elimination against the pivot row.
        for (int r = 0; r < st.params.rowsPerNode; ++r)
            co_await sys.proc(me).delay(st.params.eliminateCyclesPerRow);
    }
    co_await bar.wait(me);
}

} // namespace

AppResult
runGauss(Machine &sys, const GaussParams &p, const MeasureOpts &opts)
{
    auto st = std::make_unique<GaussState>();
    st->sys = &sys;
    st->params = p;
    st->pivotSeen.assign(sys.numNodes(), 0);

    AmBarrier bar(sys, kGaussBarrier);

    for (NodeId i = 0; i < sys.numNodes(); ++i) {
        sys.endpoint(i).onMessage(
            kPivotHandler,
            [&st = *st, i](const UserMsg &u) -> CoTask<void> {
                // Pivot k received: copy charged by the messaging layer;
                // remember the highest pivot index seen.
                st.pivotSeen[i] =
                    std::max(st.pivotSeen[i], u.userTag + 1);
                co_return;
            });
    }

    for (NodeId i = 0; i < sys.numNodes(); ++i)
        sys.spawn(i, nodeProgram(*st, bar, i));

    AppResult res = measureApp(sys, opts);
    res.checksum = st->pivotSeen[ (sys.numNodes() > 1) ? 1 : 0 ];
    return res;
}

} // namespace cni
