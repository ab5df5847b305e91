#include "apps/appbt.hpp"

namespace cni
{

namespace
{

constexpr std::uint32_t kRequestHandler = kAppHandlerBase + 50;
constexpr std::uint32_t kResponseHandler = kAppHandlerBase + 51;
constexpr std::uint32_t kAppbtBarrier = kAppHandlerBase + 53;

struct AppbtState
{
    Machine *sys = nullptr;
    AppbtParams params;
    std::vector<std::uint64_t> responses; // per node, monotonic
    std::vector<std::vector<NodeId>> neighbors;
};

/** 4x2x2 processor grid neighbours (faces of each subcube). */
std::vector<NodeId>
gridNeighbors(NodeId me, int n)
{
    // Factor n into a 3D grid as evenly as possible (paper: 16 nodes).
    int dx = 1, dy = 1, dz = 1;
    for (int f = 2; dx * dy * dz < n; ) {
        if (dx <= dy && dx <= dz)
            dx *= f;
        else if (dy <= dz)
            dy *= f;
        else
            dz *= f;
    }
    const int x = me % dx;
    const int y = (me / dx) % dy;
    const int z = me / (dx * dy);
    std::vector<NodeId> out;
    auto add = [&](int nx, int ny, int nz) {
        if (nx < 0 || nx >= dx || ny < 0 || ny >= dy || nz < 0 || nz >= dz)
            return;
        const NodeId id = nx + ny * dx + nz * dx * dy;
        if (id != me && id < n)
            out.push_back(id);
    };
    add(x - 1, y, z);
    add(x + 1, y, z);
    add(x, y - 1, z);
    add(x, y + 1, z);
    add(x, y, z - 1);
    add(x, y, z + 1);
    return out;
}

CoTask<void>
nodeProgram(AppbtState &st, AmBarrier &bar, NodeId me)
{
    Machine &sys = *st.sys;
    std::uint64_t expected = 0;
    for (int it = 0; it < st.params.iterations; ++it) {
        co_await sys.proc(me).delay(st.params.computePerIter);
        // Boundary exchange: request each neighbour's face blocks; the
        // shared-memory protocol's hot spot (Section 5.2) sends every
        // node an extra round of requests to node 0.
        for (NodeId nb : st.neighbors[me]) {
            for (int b = 0; b < st.params.blocksPerNeighbor; ++b) {
                std::uint8_t req[12] = {};
                co_await sys.endpoint(me).send(nb, kRequestHandler, req,
                                               sizeof(req));
                expected += 1;
                // Keep a few requests outstanding: poll opportunistically.
                co_await sys.endpoint(me).poll(2);
            }
        }
        if (me != 0) {
            for (int b = 0; b < st.params.blocksPerNeighbor; ++b) {
                std::uint8_t req[12] = {};
                co_await sys.endpoint(me).send(0, kRequestHandler, req,
                                               sizeof(req));
                expected += 1;
                co_await sys.endpoint(me).poll(2);
            }
        }
        co_await sys.endpoint(me).pollUntil([&st, me, expected] {
            return st.responses[me] >= expected;
        });
        co_await bar.wait(me);
    }
}

} // namespace

AppResult
runAppbt(Machine &sys, const AppbtParams &p, const MeasureOpts &opts)
{
    auto st = std::make_unique<AppbtState>();
    st->sys = &sys;
    st->params = p;
    const int n = sys.numNodes();
    st->responses.assign(n, 0);
    st->neighbors.resize(n);
    for (NodeId i = 0; i < n; ++i)
        st->neighbors[i] = gridNeighbors(i, n);

    for (NodeId i = 0; i < n; ++i) {
        // Home node: service a block request with a 128-byte response.
        sys.endpoint(i).onMessage(
            kRequestHandler,
            [&st = *st, i](const UserMsg &u) -> CoTask<void> {
                Machine &sys = *st.sys;
                co_await sys.proc(i).delay(st.params.homeServiceCycles);
                std::vector<std::uint8_t> block(st.params.blockBytes,
                                                std::uint8_t(i));
                co_await sys.endpoint(i).send(u.src, kResponseHandler,
                                              block.data(), block.size());
            });
        sys.endpoint(i).onMessage(
            kResponseHandler,
            [&st = *st, i](const UserMsg &) -> CoTask<void> {
                st.responses[i] += 1;
                co_return;
            });
    }

    AmBarrier bar(sys, kAppbtBarrier);
    for (NodeId i = 0; i < n; ++i)
        sys.spawn(i, nodeProgram(*st, bar, i));

    AppResult res = measureApp(sys, opts);
    for (auto v : st->responses)
        res.checksum += v;
    return res;
}

} // namespace cni
