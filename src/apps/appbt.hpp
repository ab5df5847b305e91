/**
 * @file
 * appbt: the NAS BT computational fluid dynamics application (Section
 * 4.2, Table 3). A cube of cells divided into subcubes among processors;
 * communication is near-neighbour boundary exchange through an
 * invalidation-based shared-memory protocol — modelled as request-
 * response traffic moving 128-byte shared-memory blocks. One processor
 * is a hot spot receiving roughly twice as many messages as the others
 * (Section 5.2).
 */

#ifndef CNI_APPS_APPBT_HPP
#define CNI_APPS_APPBT_HPP

#include "apps/common.hpp"

namespace cni
{

struct AppbtParams
{
    int iterations = 4;
    int blocksPerNeighbor = 24;    //!< boundary blocks fetched per face
    std::size_t blockBytes = 128;  //!< shared-memory block size
    Tick computePerIter = 30000;   //!< local stencil work per iteration
    Tick homeServiceCycles = 20;   //!< protocol handler work per request
};

AppResult runAppbt(Machine &sys, const AppbtParams &p = {},
                   const MeasureOpts &opts = {});

} // namespace cni

#endif // CNI_APPS_APPBT_HPP
