/**
 * @file
 * Umbrella header: the five macrobenchmarks of Section 4.2.
 */

#ifndef CNI_APPS_APPS_HPP
#define CNI_APPS_APPS_HPP

#include "apps/appbt.hpp"
#include "apps/em3d.hpp"
#include "apps/gauss.hpp"
#include "apps/moldyn.hpp"
#include "apps/spsolve.hpp"

namespace cni
{

/**
 * Run macrobenchmark `name` on a fresh machine built from `spec` under
 * `opts` (MeasureOpts::report gets the machine's report). `seed` != 0
 * overrides the workload-synthesis seed of the randomized apps (em3d,
 * spsolve); 0 keeps each app's paper-calibrated default.
 */
AppResult runMacrobenchmark(const std::string &name,
                            const MachineSpec &spec,
                            std::uint64_t seed = 0,
                            const MeasureOpts &opts = {});

/** The five macrobenchmark names, in the paper's order. */
const std::vector<std::string> &macrobenchmarkNames();

} // namespace cni

#endif // CNI_APPS_APPS_HPP
