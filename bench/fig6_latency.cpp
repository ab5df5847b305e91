/**
 * @file
 * Figure 6: process-to-process round-trip message latency vs message size.
 *
 *  (a) NI2w, CNI4, CNI16Q, CNI512Q, CNI16Qm on the memory bus
 *  (b) NI2w, CNI4, CNI16Q, CNI512Q on the I/O bus
 *  (c) best CNI per bus vs NI2w on the cache bus
 *
 * Also prints the abstract's headline comparison: the best CNI's
 * improvement over NI2w for a 64-byte message on each bus.
 *
 * The whole figure is one SweepSpec (sweep/spec.hpp): the
 * placement × NI × bytes grid with allow_invalid (the paper's grid
 * deliberately contains unbuildable cells — CNI16Qm on the I/O bus —
 * printed as "n/a"). The tables are views over the expanded point
 * list, so:
 *
 *   --spec PATH    write the sweep's JSON job form — POST it to cnid
 *                  and the daemon runs the identical sweep
 *   --points PATH  write the per-point result documents as NDJSON,
 *                  byte-identical to the daemon's /results stream
 *
 * Per-run config+stats land in fig6_latency.report.json (see --json).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/cli.hpp"
#include "sim/logging.hpp"
#include "sim/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

using namespace cni;

namespace
{

const std::vector<std::string> kSizes = {"8",  "16",  "32",
                                         "64", "128", "256"};
const std::vector<std::string> kModels = {"NI2w", "CNI4", "CNI16Q",
                                          "CNI512Q", "CNI16Qm"};

/** Results indexed by (placement, ni, bytes). */
using ResultMap =
    std::map<std::pair<std::string, std::pair<std::string, std::string>>,
             const sweep::PointResult *>;

double
metricOr(const sweep::PointResult &r, const char *name, double def)
{
    for (const auto &[k, v] : r.metrics) {
        if (k == name)
            return v;
    }
    return def;
}

/** Latency for a cell, or a negative sentinel ("n/a"). */
double
cellValue(const ResultMap &results, const std::string &placement,
          const std::string &ni, const std::string &bytes)
{
    const auto it = results.find({placement, {ni, bytes}});
    if (it == results.end() || it->second->status != "ok")
        return -1.0;
    return metricOr(*it->second, "microseconds", -1.0);
}

void
cell(double us, int width = 10)
{
    if (us < 0)
        std::printf("%*s", width, "n/a");
    else
        std::printf("%*.2f", width, us);
}

void
panel(const ResultMap &results, const char *title,
      const std::string &placement,
      const std::vector<std::string> &models)
{
    std::printf("\n%s\n", title);
    std::printf("%8s", "bytes");
    for (const auto &m : models)
        std::printf("%10s", m.c_str());
    std::printf("\n");
    for (const auto &sz : kSizes) {
        std::printf("%8s", sz.c_str());
        for (const auto &m : models)
            cell(cellValue(results, placement, m, sz));
        std::printf("\n");
    }
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
        "       (fixed NI/placement sweep: --net*/--window/--json "
        "honored)");

    // The figure as one first-class sweep. Machine-wide CLI flags
    // overlay the base; the axes are the figure's own grid.
    sweep::SweepSpec spec;
    spec.workload = "roundtrip";
    spec.base = {{"nodes", "2"}};
    for (const auto &[k, v] : opts.netParams())
        sweep::bindParam(&spec.base, k, v);
    spec.axes = {{"placement", {"memory", "io", "cache"}},
                 {"ni", kModels},
                 {"bytes", kSizes}};
    spec.seeds = {opts.seedOr(1)};
    spec.allowInvalid = true; // the grid's "n/a" cells are by design

    // A flag combination that can build no cell at all (e.g.
    // --coherence directory on the default ideal net) must fail loudly
    // with the validator's message, not print an all-n/a table with a
    // green exit; the memory-bus panel builds whenever the machine-wide
    // flags are coherent, so probe it.
    {
        sweep::SweepPoint probe;
        probe.workload = spec.workload;
        probe.seed = spec.seeds[0];
        probe.params = spec.base;
        sweep::bindParam(&probe.params, "placement", "memory");
        sweep::bindParam(&probe.params, "ni", "CNI16Qm");
        std::string why;
        if (!sweep::validatePoint(probe, &why))
            cni_fatal("invalid flags: %s", why.c_str());
    }

    if (!specPath.empty())
        writeFileOrDie(specPath, spec.toJson() + "\n");

    const std::vector<sweep::SweepPoint> points = spec.expand();
    std::vector<sweep::PointResult> results;
    results.reserve(points.size());
    ResultMap byCell;
    std::string ndjson;
    for (const sweep::SweepPoint &p : points) {
        results.push_back(sweep::runPoint(p, spec.timeoutTicks));
        const sweep::PointResult &r = results.back();
        byCell[{sweep::paramOr(p.params, "placement", ""),
                {sweep::paramOr(p.params, "ni", ""),
                 sweep::paramOr(p.params, "bytes", "64")}}] = &r;
        ndjson += r.doc;
        ndjson += '\n';
        if (!r.machineJson.empty()) {
            report::add("roundTripLatency " + r.label + " " +
                            sweep::paramOr(p.params, "bytes", "64") + "B",
                        r.machineJson);
        }
    }
    if (!pointsPath.empty())
        writeFileOrDie(pointsPath, ndjson);

    std::printf("Figure 6: round-trip latency (microseconds)\n");

    panel(byCell, "(a) memory bus", "memory",
          {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"});
    panel(byCell, "(b) I/O bus", "io",
          {"NI2w", "CNI4", "CNI16Q", "CNI512Q"});

    std::printf("\n(c) alternate buses\n%8s", "bytes");
    std::printf("%14s%16s%14s\n", "NI2w/cache", "CNI16Qm/memory",
                "CNI512Q/io");
    for (const auto &sz : kSizes) {
        std::printf("%8s", sz.c_str());
        cell(cellValue(byCell, "cache", "NI2w", sz), 14);
        cell(cellValue(byCell, "memory", "CNI16Qm", sz), 16);
        cell(cellValue(byCell, "io", "CNI512Q", sz), 14);
        std::printf("\n");
    }

    // Headline numbers (abstract): improvement at 64 bytes. The I/O-bus
    // comparison only exists on backends with a bridged I/O bus.
    const double ni2wMem = cellValue(byCell, "memory", "NI2w", "64");
    const double cniMem = cellValue(byCell, "memory", "CNI16Qm", "64");
    const double ni2wIo = cellValue(byCell, "io", "NI2w", "64");
    const double cniIo = cellValue(byCell, "io", "CNI512Q", "64");
    // "X% better" in the paper is the speed ratio NI2w/CNI - 1.
    std::printf("\nheadline (64-byte message round-trip):\n");
    if (ni2wMem > 0 && cniMem > 0) {
        std::printf("  memory bus: NI2w %.2fus vs CNI16Qm %.2fus -> "
                    "%.0f%% better (paper: 37%%)\n",
                    ni2wMem, cniMem, 100.0 * (ni2wMem / cniMem - 1.0));
    }
    if (ni2wIo > 0 && cniIo > 0) {
        std::printf("  I/O bus:    NI2w %.2fus vs CNI512Q %.2fus -> "
                    "%.0f%% better (paper: 74%%)\n",
                    ni2wIo, cniIo, 100.0 * (ni2wIo / cniIo - 1.0));
    }
    opts.emitReports();
    return 0;
}
