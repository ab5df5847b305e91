#include "apps/moldyn.hpp"

namespace cni
{

namespace
{

constexpr std::uint32_t kReduceHandler = kAppHandlerBase + 40;
constexpr std::uint32_t kMoldynBarrier = kAppHandlerBase + 42;

struct MoldynState
{
    Machine *sys = nullptr;
    MoldynParams params;
    std::vector<std::uint64_t> chunksReceived; // per node, monotonic
};

CoTask<void>
nodeProgram(MoldynState &st, AmBarrier &bar, NodeId me)
{
    Machine &sys = *st.sys;
    const int n = sys.numNodes();
    std::vector<std::uint8_t> chunk(st.params.reduceBytes,
                                    std::uint8_t(me));
    std::uint64_t expected = 0;

    for (int it = 0; it < st.params.iterations; ++it) {
        // Non-bonded force computation (the ~60% that is not reduction).
        co_await sys.proc(me).delay(st.params.forceComputeCycles);

        // Bulk reduction: P rounds, each shipping 1.5 KB to the ring
        // neighbour and combining the chunk that arrives from the other
        // side (Section 4.2 / the PPOPP'95 reduction protocol).
        for (int r = 0; r < n; ++r) {
            co_await sys.endpoint(me).send((me + 1) % n, kReduceHandler,
                                           chunk.data(), chunk.size());
            expected += 1;
            co_await sys.endpoint(me).pollUntil([&st, me, expected] {
                return st.chunksReceived[me] >= expected;
            });
            co_await sys.proc(me).delay(st.params.reduceOpCycles);
        }
        co_await bar.wait(me);
    }
}

} // namespace

AppResult
runMoldyn(Machine &sys, const MoldynParams &p, const MeasureOpts &opts)
{
    auto st = std::make_unique<MoldynState>();
    st->sys = &sys;
    st->params = p;
    st->chunksReceived.assign(sys.numNodes(), 0);

    for (NodeId i = 0; i < sys.numNodes(); ++i) {
        sys.endpoint(i).onMessage(
            kReduceHandler,
            [&st = *st, i](const UserMsg &) -> CoTask<void> {
                st.chunksReceived[i] += 1;
                co_return;
            });
    }

    AmBarrier bar(sys, kMoldynBarrier);
    for (NodeId i = 0; i < sys.numNodes(); ++i)
        sys.spawn(i, nodeProgram(*st, bar, i));

    AppResult res = measureApp(sys, opts);
    for (auto v : st->chunksReceived)
        res.checksum += v;
    return res;
}

} // namespace cni
