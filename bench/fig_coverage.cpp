/**
 * @file
 * Directory coverage sweep: sparse-directory coverage ratio × hotspot
 * sharing degree, with 3-hop vs 4-hop data-path columns — the scaling
 * experiment behind the directory v2 protocol (ROADMAP: sparse
 * directory + 3-hop forwarding).
 *
 * The workload itself (scan + hotspot, see sweep/runner.hpp's
 * "coverage" entry) runs per node: every node repeatedly scans a
 * working set of cached blocks whose interleaved homes are 3/4 remote;
 * the directory must track all of them. Coverage = dirEntries /
 * blocks-per-home: at 1.0 the sweep runs the exact full map (zero
 * recalls by construction); below 1.0 every allocation into a full set
 * recalls a victim, the recalled lines miss again on the next pass, and
 * the thrash shows up as recalls/evictions and a longer run.
 * Concurrently, `sharing` senders stream messages at node 0 (CNI16Qm's
 * memory-homed receive queue), so the proc/device block hand-offs
 * produce owner-forwarded (Fwd) misses — the path where 3-hop
 * forwarding saves a fabric traversal per miss, visible in the mean
 * remote-miss latency column.
 *
 * The table is one SweepSpec (sweep/figure.hpp): dir-entries × sharing
 * × dir-hops over the "coverage" workload, with --spec/--points as in
 * every figure.
 *
 * Defaults: 4 nodes, mesh, CNI16Qm. --net picks another routed fabric;
 * --dir-assoc resizes the sets; per-run config+stats land in
 * fig_coverage.report.json (see --json); the release CI job asserts the
 * recall counters appear in it.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/logging.hpp"
#include "sweep/figure.hpp"

using namespace cni;

namespace
{

int
entriesFor(double coverage, int assoc)
{
    if (coverage >= 1.0)
        return 0; // exact full map
    int entries = int(coverage * sweep::kCoverageWorkingBlocks);
    entries -= entries % assoc;
    return entries < assoc ? assoc : entries;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    sweep::Figure fig(
        argc, argv, "(directory coverage x sharing sweep, 3-hop vs 4-hop)");
    const cli::Options &opts = fig.opts();

    const std::vector<double> coverages = {1.0, 0.5, 0.25};
    const std::vector<int> sharings = {1, 3};

    // Machine-wide CLI flags overlay the base; the axes (the sweep's
    // own knobs) win over --dir-entries/--dir-hops.
    sweep::SweepSpec spec;
    spec.workload = "coverage";
    spec.base = {{"ni", "CNI16Qm"},
                 {"net", "mesh"},
                 {"coherence", "directory"}};
    for (const auto &[k, v] : opts.netParams())
        sweep::bindParam(&spec.base, k, v);
    sweep::bindParam(&spec.base, "nodes",
                     sweep::paramOr(opts.machine, "nodes", "4"));
    sweep::bindParam(&spec.base, "dir-assoc",
                     sweep::paramOr(opts.machine, "dir-assoc", "4"));

    // The entries axis is sized by the associativity, so the base
    // (as a full map) must build before the axis is derived from it.
    MachineBuilder base;
    sweep::ParamList unused;
    std::string why;
    if (!sweep::applyMachineParams(spec.base, &base, &unused, &why) ||
        !base.dirEntries(0).valid(&why))
        cni_fatal("invalid flags: %s", why.c_str());
    const int assoc = base.spec().dir.assoc;

    sweep::SweepAxis entriesAxis{"dir-entries", {}};
    for (const double cov : coverages)
        entriesAxis.values.push_back(
            std::to_string(entriesFor(cov, assoc)));
    spec.axes = {entriesAxis,
                 {"sharing", {"1", "3"}},
                 {"dir-hops", {"4", "3"}}};
    spec.seeds = {opts.seedOr(1)};
    fig.run(spec);

    std::printf("Directory coverage sweep: %d-block working set/node, "
                "%d scan passes, hotspot %zu-byte messages\n\n",
                sweep::kCoverageWorkingBlocks, sweep::kCoverageScanPasses,
                sweep::kCoverageMsgBytes);
    std::printf("%9s%9s%6s%12s%14s%12s%10s%11s%8s\n", "coverage",
                "sharing", "hops", "cycles", "rmiss-mean", "rmisses",
                "recalls", "evictions", "fwd3");
    // Duplicate-free expansion can merge table rows (e.g. a --dir-assoc
    // large enough that two coverages clamp to the same entry count);
    // the lookup serves every row either way.
    cli::Runs runs;
    for (std::size_t c = 0; c < coverages.size(); ++c) {
        for (const int s : sharings) {
            for (const int hops : {4, 3}) {
                const sweep::PointResult &r = *fig.find(
                    {{"dir-entries", entriesAxis.values[c]},
                     {"sharing", std::to_string(s)},
                     {"dir-hops", std::to_string(hops)}});
                std::printf(
                    "%9.2f%9d%6d%12llu%14.1f%12llu%10llu%11llu%8llu\n",
                    coverages[c], s, hops,
                    static_cast<unsigned long long>(
                        r.metric("cycles", 0)),
                    r.metric("remote_miss_latency_mean", 0),
                    static_cast<unsigned long long>(
                        r.metric("remote_misses", 0)),
                    static_cast<unsigned long long>(
                        r.metric("dir_recalls", 0)),
                    static_cast<unsigned long long>(
                        r.metric("dir_evictions", 0)),
                    static_cast<unsigned long long>(
                        r.metric("fwd3_supplies", 0)));
                char label[64];
                std::snprintf(label, sizeof label, "cov%.2f/s%d/%dhop",
                              coverages[c], s, hops);
                runs.emplace_back(label, r.machineJson);
            }
        }
    }
    opts.emitReports(runs);
    return 0;
}
