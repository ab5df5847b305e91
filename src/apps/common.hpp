/**
 * @file
 * Shared infrastructure for the five macrobenchmarks (Section 4.2).
 *
 * Each macrobenchmark is a communication skeleton: the message sizes,
 * fan-outs, phase structure, and burstiness of the original application
 * are reproduced exactly as the paper describes them, while local
 * computation is charged as calibrated processor-cycle delays. This
 * preserves what Figure 8 measures — the interaction of each traffic
 * pattern with the NI design — without interpreting SPARC binaries.
 */

#ifndef CNI_APPS_COMMON_HPP
#define CNI_APPS_COMMON_HPP

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/microbench.hpp"

namespace cni
{

/** Handler id namespace for application messages. */
constexpr std::uint32_t kAppHandlerBase = 1000;

/**
 * A sense-reversing message barrier: every node reports to node 0, which
 * releases everyone. Costs 2(P-1) real messages per episode, so barrier
 * overhead scales with the NI like everything else.
 */
class AmBarrier
{
  public:
    explicit AmBarrier(Machine &sys, std::uint32_t handlerId);

    /** Enter the barrier on `node`; resumes when all nodes arrived. */
    CoTask<void> wait(NodeId node);

  private:
    CoTask<void> release();

    Machine &sys_;
    std::uint32_t handlerId_;
    int arrived_ = 0;
    std::uint64_t episode_ = 0;
    std::vector<std::uint64_t> released_;
};

/** Aggregate outcome of one macrobenchmark run (validation + Figure 8). */
struct AppResult
{
    Tick ticks = 0;              //!< total simulated execution time
    std::uint64_t userMsgs = 0;  //!< user messages sent
    std::uint64_t checksum = 0;  //!< app-specific result for validation
    Tick memBusOccupied = 0;     //!< sum of memory-bus busy cycles
    bool completed = true;       //!< false: hit MeasureOpts::timeoutTicks
};

/**
 * Run the app spawned on `sys` under `opts` (runMeasured) and fill in
 * what every app reports; the caller adds its checksum.
 */
AppResult measureApp(Machine &sys, const MeasureOpts &opts);

} // namespace cni

#endif // CNI_APPS_COMMON_HPP
