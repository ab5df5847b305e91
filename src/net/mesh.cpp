#include "net/mesh.hpp"

#include <algorithm>
#include <cmath>

#include "sim/json.hpp"
#include "sim/logging.hpp"

namespace cni
{

std::pair<int, int>
meshDimsFor(int n)
{
    cni_assert(n >= 1);
    int best = 1;
    for (int x = 1; x * x <= n; ++x) {
        if (n % x == 0)
            best = x;
    }
    return {best, n / best};
}

MeshNet::MeshNet(EventQueue &eq, int numNodes, NetParams params, bool wrap)
    : Interconnect(eq, numNodes, std::move(params)), wrap_(wrap),
      cLinkWaitCycles_(stats_, "link_wait_cycles"),
      cLinkBusyCycles_(stats_, "link_busy_cycles"), cHops_(stats_, "hops")
{
    if (params_.meshX > 0 && params_.meshY > 0) {
        dimX_ = params_.meshX;
        dimY_ = params_.meshY;
    } else {
        auto [x, y] = meshDimsFor(numNodes);
        dimX_ = x;
        dimY_ = y;
    }
    if (dimX_ * dimY_ != numNodes) {
        cni_fatal("mesh dims %dx%d do not cover %d nodes", dimX_, dimY_,
                  numNodes);
    }
    cni_assert(params_.linkBw >= 1);
    links_.resize(std::size_t(numNodes) * 4);
}

const char *
MeshNet::dirName(int d)
{
    static const char *names[4] = {"east", "west", "north", "south"};
    return names[d];
}

std::pair<NodeId, MeshNet::Dir>
MeshNet::step(NodeId cur, NodeId dst) const
{
    const int cx = x(cur), cy = y(cur);
    const int dx = x(dst), dy = y(dst);
    // Dimension-order: resolve X first, then Y (deadlock-free in a mesh).
    if (cx != dx) {
        bool goEast = dx > cx;
        if (wrap_) {
            // Torus: route the shorter way around (ties go east).
            const int fwd = (dx - cx + dimX_) % dimX_;
            goEast = fwd <= dimX_ - fwd;
        }
        const int nx = goEast ? (cx + 1) % dimX_
                              : (cx - 1 + dimX_) % dimX_;
        return {at(nx, cy), goEast ? East : West};
    }
    cni_assert(cy != dy);
    bool goSouth = dy > cy;
    if (wrap_) {
        const int fwd = (dy - cy + dimY_) % dimY_;
        goSouth = fwd <= dimY_ - fwd;
    }
    const int ny = goSouth ? (cy + 1) % dimY_ : (cy - 1 + dimY_) % dimY_;
    return {at(cx, ny), goSouth ? South : North};
}

int
MeshNet::hops(NodeId src, NodeId dst) const
{
    int n = 0;
    NodeId cur = src;
    while (cur != dst) {
        cur = step(cur, dst).first;
        ++n;
    }
    return n;
}

Tick
MeshNet::routeDelay(const NetMsg &msg, Tick now)
{
    const Tick ser = serializationCycles(msg);
    Tick t = now;
    NodeId cur = msg.src;
    std::uint64_t nhops = 0;
    while (cur != msg.dst) {
        auto [next, dir] = step(cur, msg.dst);
        t += params_.hopLatency;
        const Tick start = link(cur, dir).reserve(t, ser);
        if (start > t)
            cLinkWaitCycles_.incr(start - t);
        cLinkBusyCycles_.incr(ser);
        t = start + ser;
        cur = next;
        ++nhops;
    }
    cHops_.incr(nhops);
    return t - now;
}

Tick
MeshNet::ackDelay(NodeId src, NodeId dst)
{
    // The ack retraces the path (dst back to src) as a small control
    // flit: hop latency only, no link-bandwidth reservation.
    return std::max<Tick>(1, Tick(hops(dst, src)) * params_.hopLatency);
}

void
MeshNet::reportTopology(JsonWriter &w) const
{
    barrier_.assertHeld(); // reports run serially, between windows
    w.key("dims").beginObject();
    w.key("x").value(dimX_);
    w.key("y").value(dimY_);
    w.key("wrap").value(wrap_);
    w.endObject();
    w.key("links").beginArray();
    for (NodeId n = 0; n < numNodes(); ++n) {
        for (int d = 0; d < 4; ++d) {
            const Link &l = links_[std::size_t(n) * 4 + d];
            if (l.uses == 0)
                continue;
            w.beginObject();
            w.key("node").value(n);
            w.key("dir").value(dirName(d));
            w.key("traversals").value(l.uses);
            w.key("busy_cycles").value(std::uint64_t(l.busyCycles));
            w.key("wait_cycles").value(std::uint64_t(l.waitCycles));
            w.endObject();
        }
    }
    w.endArray();
}

} // namespace cni
