/**
 * @file
 * spsolve: a very fine-grained iterative sparse-matrix solver (Section
 * 4.2, Table 3). Active messages propagate down the edges of a directed
 * acyclic graph; all computation happens in the handlers. Each message
 * carries a 12-byte payload and the per-message computation is one
 * double-word addition, so messaging overhead dominates. Several active
 * messages can be in flight at once, creating bursty traffic.
 */

#ifndef CNI_APPS_SPSOLVE_HPP
#define CNI_APPS_SPSOLVE_HPP

#include "apps/common.hpp"

namespace cni
{

struct SpsolveParams
{
    int elements = 3720;   //!< DAG nodes (paper's input: 3720 elements)
    int maxOutDegree = 3;  //!< out-edges per element
    int edgeSpan = 64;     //!< targets drawn from the next `edgeSpan` ids
    Tick addCycles = 6;    //!< one double-word addition + handler body
    std::uint64_t seed = 12345;
};

/**
 * Can spsolve run on a machine built from `spec`? Not on the sharded
 * kernel (threads >= 1): every node's handlers count completed elements
 * in one shared variable that every node's wait reads, and a shard may
 * reach another shard's state only through barrier posts. False +
 * `why` there.
 */
bool spsolveRunsOn(const MachineSpec &spec, std::string *why);

/**
 * Run spsolve on `sys`: spawns all node programs and runs them under
 * `opts` (to completion by default). Fatal on a machine
 * spsolveRunsOn() refuses.
 */
AppResult runSpsolve(Machine &sys, const SpsolveParams &p = {},
                     const MeasureOpts &opts = {});

} // namespace cni

#endif // CNI_APPS_SPSOLVE_HPP
