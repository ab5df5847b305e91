#include "apps/common.hpp"

namespace cni
{

AmBarrier::AmBarrier(Machine &sys, std::uint32_t handlerId)
    : sys_(sys), handlerId_(handlerId), released_(sys.numNodes(), 0)
{
    const int n = sys.numNodes();
    // Node 0 collects arrivals (including its own, counted in wait()) and
    // broadcasts the release when everyone has arrived.
    sys.endpoint(0).onMessage(
        handlerId_, [this, n](const UserMsg &) -> CoTask<void> {
            ++arrived_;
            if (arrived_ == n)
                co_await release();
        });
    for (NodeId i = 1; i < n; ++i) {
        sys.endpoint(i).onMessage(
            handlerId_ + 1, [this, i](const UserMsg &u) -> CoTask<void> {
                released_[i] = u.userTag;
                co_return;
            });
    }
}

CoTask<void>
AmBarrier::release()
{
    arrived_ = 0;
    ++episode_;
    released_[0] = episode_;
    for (NodeId d = 1; d < sys_.numNodes(); ++d)
        co_await sys_.endpoint(0).send(d, handlerId_ + 1, episode_);
}

AppResult
measureApp(Machine &sys, const MeasureOpts &opts)
{
    AppResult res;
    res.completed = runMeasured(sys, opts, &res.ticks);
    res.userMsgs = sys.aggregateStats().counter("user_sends");
    res.memBusOccupied = sys.memBusOccupiedCycles();
    return res;
}

CoTask<void>
AmBarrier::wait(NodeId node)
{
    const std::uint64_t target = released_[node] + 1;
    if (node == 0) {
        ++arrived_;
        if (arrived_ == sys_.numNodes())
            co_await release();
        co_await sys_.endpoint(0).pollUntil(
            [this, target] { return released_[0] >= target; });
        co_return;
    }
    co_await sys_.endpoint(node).send(0, handlerId_);
    co_await sys_.endpoint(node).pollUntil(
        [this, node, target] { return released_[node] >= target; });
}

} // namespace cni
