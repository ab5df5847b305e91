/**
 * @file
 * MeshNet — a 2D mesh or torus with dimension-order routing and
 * per-link occupancy.
 *
 * Nodes are arranged on a meshX × meshY grid (derived near-square when
 * the dims are 0); a message routes X-first then Y. Each unidirectional
 * link between neighbors is a serial resource: a message occupies it for
 * wireBytes / linkBw cycles, reserved in injection order, so messages
 * crossing a shared link queue behind each other — this is where
 * congestion becomes visible. Each hop additionally costs
 * NetParams::hopLatency cycles of router + wire traversal. The "torus"
 * row wraps both dimensions and routes the shorter way around.
 *
 * Per-link busy cycles, waits, and traversal counts land in the fabric
 * StatSet (aggregate) and in Machine::report()'s "net.links" array
 * (per link), so hot links are directly observable.
 *
 * Acks are small fixed-size control messages; they take the hop latency
 * of the reverse path but do not reserve link bandwidth.
 */

#ifndef CNI_NET_MESH_HPP
#define CNI_NET_MESH_HPP

#include <utility>

#include "net/network.hpp"

namespace cni
{

/** Most nearly square X*Y factorization of n (X <= Y). */
std::pair<int, int> meshDimsFor(int n);

class MeshNet : public Interconnect
{
  public:
    MeshNet(EventQueue &eq, int numNodes, NetParams params,
            bool wrap = false);

    const char *kind() const override { return wrap_ ? "torus" : "mesh"; }

    int dimX() const { return dimX_; }
    int dimY() const { return dimY_; }

    /** Hops a message from `src` to `dst` traverses (routing distance). */
    int hops(NodeId src, NodeId dst) const;

    /**
     * The cheapest cross-node interaction is a one-hop ack (hop latency
     * only, no serialization), so that is the conservative lookahead.
     */
    Tick minLatency() const override { return params_.hopLatency; }

    void reportTopology(JsonWriter &w) const override;

  protected:
    Tick routeDelay(const NetMsg &msg, Tick now) override
        CNI_REQUIRES(barrier_);
    /// Pure hop math (no link reservation) — runs in the parallel phase.
    Tick ackDelay(NodeId src, NodeId dst) override;

  private:
    /** One unidirectional link from a node toward a neighbor. */
    using Link = SerialResource;

    enum Dir
    {
        East = 0,
        West = 1,
        North = 2,
        South = 3
    };

    static const char *dirName(int d);

    int x(NodeId n) const { return n % dimX_; }
    int y(NodeId n) const { return n / dimX_; }
    NodeId at(int px, int py) const { return py * dimX_ + px; }

    /**
     * One dimension-order routing step from `cur` toward `dst`: the
     * next node and the direction taken. Requires cur != dst.
     */
    std::pair<NodeId, Dir> step(NodeId cur, NodeId dst) const;

    Link &link(NodeId from, Dir d) CNI_REQUIRES(barrier_)
    {
        return links_[from * 4 + d];
    }

    bool wrap_;
    int dimX_ = 0;
    int dimY_ = 0;
    std::vector<Link> links_
        CNI_GUARDED_BY(barrier_); //!< 4 per node, indexed node*4 + Dir
    StatSet::Counter cLinkWaitCycles_;
    StatSet::Counter cLinkBusyCycles_;
    StatSet::Counter cHops_;
};

} // namespace cni

#endif // CNI_NET_MESH_HPP
