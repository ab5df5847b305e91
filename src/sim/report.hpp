/**
 * @file
 * Collection of per-run machine reports.
 *
 * `ReportSink` is the collection object: the measurement helpers add
 * one Machine::report() document per simulated run, and the harness
 * renders everything as a single JSON array with drain(). Sinks are
 * internally synchronized, so concurrent runs (the sweep daemon's
 * worker pool) can share one — or, better, each run gets its own sink
 * and the documents can never interleave at all.
 *
 * The process-wide sink report::global() serves the CLI benches (the
 * shared CLI enables it, emitReports() drains it at exit). It is
 * disabled by default: unit tests and library users pay nothing.
 */

#ifndef CNI_SIM_REPORT_HPP
#define CNI_SIM_REPORT_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "sim/thread_annotations.hpp"

namespace cni
{

class ReportSink
{
  public:
    struct Run
    {
        std::string label;
        std::string json;
    };

    /** Turn collection on/off (off drops add() calls, clears nothing). */
    void enable(bool on);
    bool enabled() const;

    /**
     * Record one run. `label` names the run (configuration, workload,
     * ...); `json` must be a complete JSON value (Machine::report()).
     */
    void add(const std::string &label, const std::string &json);

    /** Number of collected runs. */
    std::size_t count() const;

    /** Drop all collected runs. */
    void clear();

    /** Remove and return the collected runs, in insertion order. */
    std::vector<Run> take();

    /**
     * Render `{"binary": name, "runs": [{"label":..., "report":...}...]}`
     * and clear the collection.
     */
    std::string drain(const std::string &binaryName);

  private:
    mutable CniMutex mu_;
    bool enabled_ CNI_GUARDED_BY(mu_) = false;
    std::vector<Run> runs_ CNI_GUARDED_BY(mu_);
};

namespace report
{

/**
 * The process-wide sink the CLI benches collect into. Thread-safe, but
 * concurrent library users should prefer a per-run ReportSink of their
 * own so independent sweeps never mix documents.
 */
ReportSink &global();

} // namespace report

} // namespace cni

#endif // CNI_SIM_REPORT_HPP
