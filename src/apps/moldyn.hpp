/**
 * @file
 * moldyn: molecular dynamics in the style of CHARMM's non-bonded force
 * calculation (Section 4.2, Table 3). The main communication is a custom
 * bulk reduction protocol — roughly 40% of total time under NI2w — whose
 * every execution iterates as many times as there are processors, each
 * iteration sending 1.5 KB to the same neighbouring processor.
 */

#ifndef CNI_APPS_MOLDYN_HPP
#define CNI_APPS_MOLDYN_HPP

#include "apps/common.hpp"

namespace cni
{

struct MoldynParams
{
    int iterations = 8;          //!< outer timesteps (paper: 30, scaled)
    std::size_t reduceBytes = 1536; //!< per-round bulk transfer (1.5 KB)
    Tick forceComputeCycles = 26000; //!< non-bonded force work per step
    Tick reduceOpCycles = 400;   //!< local combine per reduction round
};

AppResult runMoldyn(Machine &sys, const MoldynParams &p = {},
                    const MeasureOpts &opts = {});

} // namespace cni

#endif // CNI_APPS_MOLDYN_HPP
