/**
 * @file
 * Figure: the bench side of a sweep. Every binary that runs simulation
 * points (fig6, fig7, fig8, fig_congestion, fig_coverage, fig_protocol,
 * table2_occupancy, and cnisweep for the spec files under bench/specs)
 * is one SweepSpec plus its printing; this class does the rest:
 *
 *   --spec PATH    write the sweep's JSON job form — POST it to cnid
 *                  and the daemon runs the identical sweep
 *   --points PATH  write the per-point result documents as NDJSON,
 *                  byte-identical to the daemon's /results stream
 *
 * plus the shared CLI (sim/cli.hpp), the validator gate, running every
 * point through runPoint() in expansion order, and looking results up
 * by parameter values.
 */

#ifndef CNI_SWEEP_FIGURE_HPP
#define CNI_SWEEP_FIGURE_HPP

#include <string>
#include <string_view>
#include <vector>

#include "sim/cli.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace cni::sweep
{

class Figure
{
  public:
    /** Take --spec/--points out of argv, then parse the shared CLI. */
    Figure(int argc, char **argv, const char *usage);

    const cli::Options &opts() const { return opts_; }

    /**
     * Run `spec`. A flag combination the figure cannot build is a usage
     * error (fatal, with the validator's message): every point must
     * validate, or under allow_invalid — a grid with "n/a" cells by
     * design — the first point matching `probe`. Then --spec is
     * written, every point runs, --points is written, and a point that
     * ran out of its tick budget is fatal.
     */
    void run(const SweepSpec &spec, const ParamList &probe = {});

    /** The points and their results, in expansion order (after run()). */
    const std::vector<SweepPoint> &points() const { return points_; }
    const std::vector<PointResult> &results() const { return results_; }

    /** The first point whose params include every `at` binding. */
    const PointResult *find(const ParamList &at) const;

    /** Metric `name` of the ok point at `at`, or `def` (an n/a cell). */
    double metric(const ParamList &at, std::string_view name,
                  double def) const;

    /** Every run's (reportLabel, machineJson), in run order. */
    cli::Runs reports() const;

  private:
    cli::Options opts_;
    std::string specPath_;
    std::string pointsPath_;
    std::vector<SweepPoint> points_;
    std::vector<PointResult> results_;
};

} // namespace cni::sweep

#endif // CNI_SWEEP_FIGURE_HPP
