/**
 * @file
 * Runtime interconnect parameters.
 *
 * The paper's Section 4.1 fabric was originally two compile-time
 * constants (100-cycle latency, 4-deep sliding window). NetParams makes
 * every fabric knob a per-machine runtime value, threaded from
 * MachineBuilder through the NetRegistry into whichever Interconnect
 * model the description names — so latency/bandwidth sensitivity sweeps
 * and congestion studies never require recompilation.
 *
 * Defaults reproduce the paper's network exactly (topology "ideal",
 * 100-cycle latency, window 4).
 */

#ifndef CNI_NET_PARAMS_HPP
#define CNI_NET_PARAMS_HPP

#include <string>

#include "sim/types.hpp"

namespace cni
{

struct NetParams
{
    /** Interconnect model name (NetRegistry): ideal | mesh | torus | xbar. */
    std::string topology = "ideal";

    /**
     * End-to-end message latency for the ideal fabric, and the crossbar's
     * transit latency, in processor cycles (Section 4.1: last byte
     * injected to first byte arrived).
     */
    Tick latency = 100;

    /** Sliding-window depth per (source, destination) pair (Section 4.1). */
    int window = 4;

    /** Retry interval after a congested receiver refuses a delivery. */
    Tick retryInterval = 20;

    /** Per-hop router + wire traversal latency (mesh/torus). */
    Tick hopLatency = 8;

    /**
     * Link serialization bandwidth in bytes per processor cycle
     * (mesh/torus links and crossbar endpoint ports). A 256-byte network
     * message occupies a link for wireBytes / linkBw cycles.
     */
    std::size_t linkBw = 4;

    /**
     * Mesh/torus dimensions. 0 means "derive": the most nearly square
     * X*Y factorization of the node count.
     */
    int meshX = 0;
    int meshY = 0;
};

} // namespace cni

#endif // CNI_NET_PARAMS_HPP
