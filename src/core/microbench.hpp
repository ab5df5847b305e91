/**
 * @file
 * The paper's two microbenchmarks (Section 5.1).
 *
 * Round-trip latency: process-to-process ping-pong; data starts in the
 * sending processor's cache and ends in the receiving processor's cache
 * (messaging-layer copies included), exactly as the paper measures.
 *
 * Bandwidth: a one-way stream; the receiver measures steady-state
 * throughput. Results can be normalized to the model's local-queue
 * maximum — the analogue of the paper's 144 MB/s two-processors-on-one-
 * memory-bus figure.
 */

#ifndef CNI_CORE_MICROBENCH_HPP
#define CNI_CORE_MICROBENCH_HPP

#include <cstddef>

#include "core/machine.hpp"
#include "sim/report.hpp"

namespace cni
{

/**
 * Shared knobs for the measurement helpers.
 *
 * `sink` scopes the per-run machine report: when set, the run document
 * goes there instead of the process-wide `report::global()` collection,
 * so concurrent sweeps never interleave documents. `timeoutTicks > 0`
 * bounds the simulated run: instead of aborting the process on a
 * wedged workload, the helper returns with `completed == false`
 * (required by the sweep daemon, where one bad point must not kill the
 * job server).
 */
struct MeasureOpts
{
    ReportSink *sink = nullptr;
    Tick timeoutTicks = 0;
};

/**
 * Run `m` to completion, or — with a timeout — until the tick budget
 * runs out; `*ticks` (optional) gets the final tick. Returns false iff
 * the workload is still unfinished at the budget. Without a timeout
 * this is Machine::run(), which treats a wedged workload as fatal.
 */
bool runMeasured(Machine &m, const MeasureOpts &opts, Tick *ticks = nullptr);

/** Add m's report, as run `label`, to opts.sink or report::global(). */
void addRunReport(const std::string &label, const Machine &m,
                  const MeasureOpts &opts);

/**
 * The model's maximum cache-to-cache local-queue bandwidth (MB/s): per
 * 64-byte block one address-only invalidation (write permission for the
 * sender), one cache-to-cache read miss (fetch for the receiver), and the
 * per-block share of queue management, Section 2.2. With Table 2 costs
 * this is 64 B / (12 + 42 + 8 cycles) at 200 MHz.
 */
constexpr double kLocalQueueMaxMBps = 64.0 * 200.0 / (12 + 42 + 8);

struct LatencyResult
{
    double microseconds = 0; //!< mean round-trip latency
    Tick cycles = 0;         //!< mean in processor cycles
    bool completed = true;   //!< false: hit MeasureOpts::timeoutTicks
};

/**
 * Measure mean round-trip latency for `msgBytes`-byte user messages
 * between nodes 0 and 1 of a machine built from `spec`. `rounds` round
 * trips are timed after `warmup` untimed ones.
 */
LatencyResult roundTripLatency(const MachineSpec &spec,
                               std::size_t msgBytes, int rounds = 16,
                               int warmup = 4,
                               const MeasureOpts &opts = {});

struct BandwidthResult
{
    double megabytesPerSec = 0;
    double relativeToLocalMax = 0; //!< fraction of kLocalQueueMaxMBps
    bool completed = true;         //!< false: hit MeasureOpts::timeoutTicks
};

/**
 * Measure steady-state one-way bandwidth for `msgBytes`-byte user
 * messages streamed from node 0 to node 1. `messages` are sent; the
 * first `warmup` are excluded from the timed window.
 */
BandwidthResult streamBandwidth(const MachineSpec &spec,
                                std::size_t msgBytes, int messages = 64,
                                int warmup = 8,
                                const MeasureOpts &opts = {});

} // namespace cni

#endif // CNI_CORE_MICROBENCH_HPP
