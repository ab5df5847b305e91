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
 *   bandwidth  bytes, messages, warmup   -> steady-state MB/s
 *   coverage   sharing                   -> directory recall/forwarding
 *                                           counters (fig_coverage's
 *                                           scan + hotspot workload)
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

/** Outcome of one point, in both machine- and human-usable forms. */
struct PointResult
{
    std::string key;
    std::string status; //!< "ok" | "invalid" | "timeout"
    std::string error;  //!< invalid: what was wrong
    std::string label;  //!< MachineSpec::label() (ok/timeout)
    /** Workload metrics in document order (ok only). */
    std::vector<std::pair<std::string, double>> metrics;
    std::string machineJson; //!< Machine::report() (ok/timeout)
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
