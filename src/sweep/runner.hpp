/**
 * @file
 * Point runner: gives SweepSpec parameters their meaning.
 *
 * A SweepPoint's params split into two groups. Machine parameters
 * (the rows of core/machine_params.hpp, the same names the shared CLI
 * takes as flags; `--help` lists them) configure the MachineBuilder;
 * anything else must belong to the point's workload:
 *
 *   roundtrip  bytes, rounds, warmup     -> mean round-trip latency
 *   bandwidth  bytes, messages, warmup   -> steady-state MB/s; by default
 *                                           max(24, 65536 / max(bytes, 64))
 *                                           messages, an eighth of them
 *                                           warm-up (fig7's volume)
 *   coverage   sharing                   -> directory recall/forwarding
 *                                           counters (fig_coverage's
 *                                           scan + hotspot workload)
 *   macro      app                       -> a Figure 8 application's run
 *                                           time and memory-bus occupancy;
 *                                           the point's seed is the app's
 *                                           synthesis seed, 0 the paper's
 *                                           input
 *   hotspot    (none)                    -> fig_congestion's many-to-one
 *                                           traffic: completion, MB/s and
 *                                           fabric congestion counters
 *   protocol   pattern, hybrid-threshold -> fig_protocol's sharing
 *                                           pattern: cycles and coherence
 *                                           traffic counters
 *   occupancy  op                        -> one Table 2 transaction's bus
 *                                           occupancy on an idle system
 *
 * The last two build coherence domains without a Machine, on a rig
 * that fixes the rest: protocol points take only the coherence rows
 * (two agents of node 0 on a 2x1 mesh; their hybrid-threshold is the
 * workload's own, default 1), occupancy points the fabric and
 * coherence rows plus placement (one node). An op with no form on the
 * point's bus is an invalid point. The roundtrip, bandwidth, macro and
 * hotspot workloads send messages between nodes, so they need at least
 * two, and spsolve needs the serial kernel.
 *
 * Everything here returns structured errors instead of dying: the
 * runner is the daemon's untrusted-input boundary, so a bad parameter
 * value, an unknown workload, or an unbuildable machine is a value the
 * caller maps to HTTP 400 (or an "invalid" result row under
 * allow_invalid), never a cni_fatal.
 *
 * runPoint() is the single code path shared by the benches and the
 * daemon, which is what makes their outputs byte-identical: the same
 * point always renders the same result document.
 */

#ifndef CNI_SWEEP_RUNNER_HPP
#define CNI_SWEEP_RUNNER_HPP

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "sweep/spec.hpp"

namespace cni::sweep
{

// fig_coverage's workload constants, shared so the bench table header
// and the runner agree on what "coverage" runs.
constexpr int kCoverageWorkingBlocks = 64; //!< per node == blocks/home
constexpr int kCoverageScanPasses = 4;
constexpr int kCoverageMsgsPerSender = 6;
constexpr std::size_t kCoverageMsgBytes = 96;
constexpr Tick kCoveragePhaseSplit = 150'000;

// fig_congestion's workload constants: after a seeded start jitter,
// every node but 0 sends this many messages of this size to node 0.
constexpr int kHotspotMsgsPerSender = 8;
constexpr std::size_t kHotspotMsgBytes = 244; //!< one full network message

// fig_protocol's sharing patterns: producer-consumer rounds over two
// blocks; migratory phases of one read plus a write burst, with compute
// after every write.
constexpr int kProducerConsumerRounds = 256;
constexpr int kMigratoryPhases = 16;
constexpr int kMigratoryWrites = 1024; //!< per phase
constexpr Tick kMigratoryCompute = 2;

/** Outcome of one point, in both machine- and human-usable forms. */
struct PointResult
{
    std::string key;
    std::string status; //!< "ok" | "invalid" | "timeout"
    std::string error;  //!< invalid: what was wrong
    std::string label;  //!< the machine's MachineSpec::label() (ok/timeout)
    /** Workload metrics in document order (ok only). */
    std::vector<std::pair<std::string, double>> metrics;
    std::string machineJson; //!< the run's report (ok/timeout), if any
    std::string reportLabel; //!< the run's label in a bench's run report
    std::string doc; //!< the complete one-line result JSON document

    /** Metric `name`, or `def` when the point has none by that name. */
    double
    metric(std::string_view name, double def) const
    {
        for (const auto &[k, v] : metrics) {
            if (k == name)
                return v;
        }
        return def;
    }
};

/**
 * Apply the machine-parameter subset of `params` to `b` through the
 * parameter table; the rest are copied to `workloadParams` (order
 * preserved). False + `why` on a value that does not parse (ranges and
 * combinations are MachineSpec::valid()'s, which the caller runs on
 * b->spec()).
 */
bool applyMachineParams(const ParamList &params, MachineBuilder *b,
                        ParamList *workloadParams, std::string *why);

/**
 * Would this point run? Checks parameter syntax, the machine
 * description, the workload name, and the workload's own parameters.
 * The daemon runs this at admission: false -> 400 (or an "invalid"
 * row under allow_invalid).
 */
bool validatePoint(const SweepPoint &p, std::string *why);

/**
 * Build and run one point, bounded by `timeoutTicks` of simulated time
 * (0 = unbounded). Never aborts on bad input; the outcome — including
 * "invalid" and "timeout" — is encoded in the returned document.
 */
PointResult runPoint(const SweepPoint &p, Tick timeoutTicks);

/** `params[name]`, or `def` when absent. */
std::string paramOr(const ParamList &params, const std::string &name,
                    const std::string &def);

} // namespace cni::sweep

#endif // CNI_SWEEP_RUNNER_HPP
