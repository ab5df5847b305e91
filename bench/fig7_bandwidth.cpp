/**
 * @file
 * Figure 7: process-to-process one-way bandwidth vs message size,
 * expressed as a fraction of the model's maximum local-queue bandwidth
 * (the analogue of the paper's 144 MB/s normalization).
 *
 *  (a) memory bus, including CNI16Qm with data snarfing
 *  (b) I/O bus
 *  (c) best CNI per bus vs NI2w on the cache bus
 *
 * The whole figure is one SweepSpec (sweep/figure.hpp): the placement ×
 * NI × snarf × bytes grid of "bandwidth" points at the workload's
 * default volume, with allow_invalid (unbuildable cells print "n/a"),
 * so --spec/--points work as in every figure.
 *
 * Per-run config+stats land in fig7_bandwidth.report.json (see --json),
 * listed once per printed cell in print order (panel (c) and the
 * headline re-list cells panels (a) and (b) already ran).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/microbench.hpp"
#include "sim/logging.hpp"
#include "sweep/figure.hpp"

using namespace cni;

namespace
{

const std::vector<std::string> kSizes = {"8",   "16",  "32",   "64",
                                         "128", "256", "512",  "1024",
                                         "2048", "4096"};

void
cell(double rel, int width)
{
    if (rel < 0)
        std::printf("%*s", width, "n/a");
    else
        std::printf("%*.3f", width, rel);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    sweep::Figure fig(
        argc, argv,
        "(fixed NI/placement sweep: --net*/--window/--json honored)");

    sweep::SweepSpec spec;
    spec.workload = "bandwidth";
    spec.base = {{"nodes", "2"}};
    for (const auto &[k, v] : fig.opts().netParams())
        sweep::bindParam(&spec.base, k, v);
    spec.axes = {{"placement", {"memory", "io", "cache"}},
                 {"ni", {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"}},
                 {"snarf", {"false", "true"}},
                 {"bytes", kSizes}};
    spec.seeds = {fig.opts().seedOr(1)};
    spec.allowInvalid = true;
    fig.run(spec, {{"placement", "memory"}, {"ni", "CNI16Qm"}});

    // Metric `name` of one cell, or -1 ("n/a") when the combination is
    // not buildable under the selected flags (e.g. --coherence
    // directory has no bridged I/O or cache-bus placements). A measured
    // cell's machine report joins the run report each time it is read.
    cli::Runs runs;
    auto cellValue = [&](const std::string &placement, const std::string &ni,
                         const std::string &bytes,
                         const char *name = "relative_to_local_max",
                         const char *snarf = "false") {
        const sweep::PointResult *r = fig.find({{"placement", placement},
                                                {"ni", ni},
                                                {"snarf", snarf},
                                                {"bytes", bytes}});
        if (!r || r->status != "ok")
            return -1.0;
        runs.emplace_back(r->reportLabel, r->machineJson);
        return r->metric(name, -1.0);
    };

    std::printf("Figure 7: bandwidth relative to local-queue max "
                "(%.0f MB/s)\n",
                kLocalQueueMaxMBps);

    std::printf("\n(a) memory bus\n%8s%10s%10s%10s%10s%10s%12s\n", "bytes",
                "NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm",
                "Qm+snarf");
    for (const auto &sz : kSizes) {
        std::printf("%8s", sz.c_str());
        for (const char *m :
             {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"})
            cell(cellValue("memory", m, sz), 10);
        cell(cellValue("memory", "CNI16Qm", sz,
                       "relative_to_local_max", "true"),
             12);
        std::printf("\n");
    }

    std::printf("\n(b) I/O bus\n%8s%10s%10s%10s%10s\n", "bytes", "NI2w",
                "CNI4", "CNI16Q", "CNI512Q");
    for (const auto &sz : kSizes) {
        std::printf("%8s", sz.c_str());
        for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q"})
            cell(cellValue("io", m, sz), 10);
        std::printf("\n");
    }

    std::printf("\n(c) alternate buses\n%8s%12s%16s%14s\n", "bytes",
                "NI2w/cache", "CNI16Qm/memory", "CNI512Q/io");
    for (const auto &sz : kSizes) {
        // The run report lists these three cells right to left.
        const double io = cellValue("io", "CNI512Q", sz);
        const double mem = cellValue("memory", "CNI16Qm", sz);
        const double cache = cellValue("cache", "NI2w", sz);
        std::printf("%8s", sz.c_str());
        cell(cache, 12);
        cell(mem, 16);
        cell(io, 14);
        std::printf("\n");
    }

    // Headline numbers (abstract): 64-byte message bandwidth.
    const double ni2wMem = cellValue("memory", "NI2w", "64", "mbps");
    const double cniMem = cellValue("memory", "CNI16Qm", "64", "mbps");
    const double ni2wIo = cellValue("io", "NI2w", "64", "mbps");
    const double cniIo = cellValue("io", "CNI512Q", "64", "mbps");
    std::printf("\nheadline (64-byte message bandwidth):\n");
    if (ni2wMem > 0 && cniMem > 0) {
        std::printf("  memory bus: NI2w %.1f MB/s vs CNI16Qm %.1f MB/s "
                    "-> +%.0f%% (paper: +125%%)\n",
                    ni2wMem, cniMem,
                    100.0 * (cniMem - ni2wMem) / ni2wMem);
    }
    if (ni2wIo > 0 && cniIo > 0) {
        std::printf("  I/O bus:    NI2w %.1f MB/s vs CNI512Q %.1f MB/s "
                    "-> +%.0f%% (paper: +123%%)\n",
                    ni2wIo, cniIo, 100.0 * (cniIo - ni2wIo) / ni2wIo);
    }
    fig.opts().emitReports(runs);
    return 0;
}
