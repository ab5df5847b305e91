/**
 * @file
 * gauss: message-passing Gaussian elimination (Section 4.2, Table 3).
 * The key communication pattern is a one-to-all broadcast of the pivot
 * row — two kilobytes for the paper's 512x512 matrix — followed by local
 * elimination on each node's rows.
 */

#ifndef CNI_APPS_GAUSS_HPP
#define CNI_APPS_GAUSS_HPP

#include "apps/common.hpp"

namespace cni
{

struct GaussParams
{
    int columns = 512;          //!< matrix dimension (row = 4*columns B)
    int pivots = 48;            //!< pivot steps simulated (scaled down)
    Tick eliminateCyclesPerRow = 96; //!< local update of one row
    int rowsPerNode = 32;       //!< rows each node eliminates per pivot
};

AppResult runGauss(Machine &sys, const GaussParams &p = {},
                   const MeasureOpts &opts = {});

} // namespace cni

#endif // CNI_APPS_GAUSS_HPP
