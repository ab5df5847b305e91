/**
 * @file
 * em3d: three-dimensional electromagnetic wave propagation (Section 4.2,
 * Table 3). Iterates over a bipartite graph of E and H nodes with
 * directed edges; each graph node sends two integers (12-byte payload
 * messages) to its neighbours through a custom update protocol. Several
 * update messages are in flight at once — bursty fine-grain traffic.
 *
 * Paper input: 1K nodes, degree 5, 10% remote, span 6, 10 iterations.
 */

#ifndef CNI_APPS_EM3D_HPP
#define CNI_APPS_EM3D_HPP

#include "apps/common.hpp"

namespace cni
{

struct Em3dParams
{
    int graphNodes = 1024;    //!< total graph nodes (half E, half H)
    int degree = 5;           //!< edges per node
    double remoteFraction = 0.10;
    int span = 6;             //!< remote edges reach +-span machine nodes
    int iterations = 10;
    Tick updateCycles = 8;    //!< per-edge local update computation
    std::uint64_t seed = 777;
};

AppResult runEm3d(Machine &sys, const Em3dParams &p = {},
                  const MeasureOpts &opts = {});

} // namespace cni

#endif // CNI_APPS_EM3D_HPP
