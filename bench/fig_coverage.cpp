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
 * The table is one SweepSpec (sweep/spec.hpp): dir-entries × sharing ×
 * dir-hops over the "coverage" workload, so:
 *
 *   --spec PATH    write the sweep's JSON job form — POST it to cnid
 *                  and the daemon runs the identical sweep
 *   --points PATH  write the per-point result documents as NDJSON,
 *                  byte-identical to the daemon's /results stream
 *
 * Defaults: 4 nodes, mesh, CNI16Qm. --net picks another routed fabric;
 * --dir-assoc resizes the sets; per-run config+stats land in
 * fig_coverage.report.json (see --json); the release CI job asserts the
 * recall counters appear in it.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/cli.hpp"
#include "sim/logging.hpp"
#include "sim/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

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

double
metricOr(const sweep::PointResult &r, const char *name, double def)
{
    for (const auto &[k, v] : r.metrics) {
        if (k == name)
            return v;
    }
    return def;
}

/** Remove `flag PATH` from argv (the shared CLI owns the rest). */
std::string
stripPathFlag(int *argc, char **argv, const char *flag)
{
    for (int i = 1; i < *argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        if (i + 1 >= *argc)
            cni_fatal("%s needs a path argument", flag);
        const std::string path = argv[i + 1];
        for (int j = i; j + 2 < *argc; ++j)
            argv[j] = argv[j + 2];
        *argc -= 2;
        return path;
    }
    return "";
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        cni_fatal("cannot write %s", path.c_str());
    out << content;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::string specPath = stripPathFlag(&argc, argv, "--spec");
    const std::string pointsPath = stripPathFlag(&argc, argv, "--points");
    const cli::Options opts = cli::parse(
        argc, argv,
        "[--spec PATH] [--points PATH]\n"
        "       (directory coverage x sharing sweep, 3-hop vs 4-hop)");

    const std::vector<double> coverages = {1.0, 0.5, 0.25};
    const std::vector<int> sharings = {1, 3};

    // The table as one first-class sweep. Machine-wide CLI flags
    // overlay the base; the axes (the sweep's own knobs) win over
    // --dir-entries/--dir-hops, exactly as the nested loops did.
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

    // Every cell of this table must build — an invalid flag combination
    // is a usage error, reported with the validator's message.
    const std::vector<sweep::SweepPoint> points = spec.expand();
    for (const sweep::SweepPoint &p : points) {
        if (!sweep::validatePoint(p, &why))
            cni_fatal("invalid flags: %s", why.c_str());
    }

    if (!specPath.empty())
        writeFileOrDie(specPath, spec.toJson() + "\n");

    // Duplicate-free expansion can merge table rows (e.g. a --dir-assoc
    // large enough that two coverages clamp to the same entry count);
    // the (entries, sharing, hops) index serves every row either way.
    std::map<std::tuple<std::string, std::string, std::string>,
             const sweep::PointResult *>
        byCell;
    std::vector<sweep::PointResult> results;
    results.reserve(points.size());
    std::string ndjson;
    for (const sweep::SweepPoint &p : points) {
        results.push_back(sweep::runPoint(p, spec.timeoutTicks));
        const sweep::PointResult &r = results.back();
        byCell[{sweep::paramOr(p.params, "dir-entries", ""),
                sweep::paramOr(p.params, "sharing", ""),
                sweep::paramOr(p.params, "dir-hops", "")}] = &r;
        ndjson += r.doc;
        ndjson += '\n';
    }
    if (!pointsPath.empty())
        writeFileOrDie(pointsPath, ndjson);

    std::printf("Directory coverage sweep: %d-block working set/node, "
                "%d scan passes, hotspot %zu-byte messages\n\n",
                sweep::kCoverageWorkingBlocks, sweep::kCoverageScanPasses,
                sweep::kCoverageMsgBytes);
    std::printf("%9s%9s%6s%12s%14s%12s%10s%11s%8s\n", "coverage",
                "sharing", "hops", "cycles", "rmiss-mean", "rmisses",
                "recalls", "evictions", "fwd3");
    for (std::size_t c = 0; c < coverages.size(); ++c) {
        for (const int s : sharings) {
            for (const int hops : {4, 3}) {
                const auto it =
                    byCell.find({entriesAxis.values[c],
                                 std::to_string(s),
                                 std::to_string(hops)});
                cni_assert(it != byCell.end());
                const sweep::PointResult &r = *it->second;
                if (r.status != "ok") {
                    cni_fatal("point %s did not complete: %s",
                              r.key.c_str(), r.status.c_str());
                }
                std::printf(
                    "%9.2f%9d%6d%12llu%14.1f%12llu%10llu%11llu%8llu\n",
                    coverages[c], s, hops,
                    static_cast<unsigned long long>(
                        metricOr(r, "cycles", 0)),
                    metricOr(r, "remote_miss_latency_mean", 0),
                    static_cast<unsigned long long>(
                        metricOr(r, "remote_misses", 0)),
                    static_cast<unsigned long long>(
                        metricOr(r, "dir_recalls", 0)),
                    static_cast<unsigned long long>(
                        metricOr(r, "dir_evictions", 0)),
                    static_cast<unsigned long long>(
                        metricOr(r, "fwd3_supplies", 0)));
                char label[64];
                std::snprintf(label, sizeof label, "cov%.2f/s%d/%dhop",
                              coverages[c], s, hops);
                report::add(label, r.machineJson);
            }
        }
    }
    opts.emitReports();
    return 0;
}
