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
 * The whole figure is one SweepSpec (sweep/figure.hpp): the
 * placement × NI × bytes grid with allow_invalid (the paper's grid
 * deliberately contains unbuildable cells — CNI16Qm on the I/O bus —
 * printed as "n/a"), so --spec/--points work as in every figure.
 *
 * Per-run config+stats land in fig6_latency.report.json (see --json).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/logging.hpp"
#include "sweep/figure.hpp"

using namespace cni;

namespace
{

const std::vector<std::string> kSizes = {"8",  "16",  "32",
                                         "64", "128", "256"};
const std::vector<std::string> kModels = {"NI2w", "CNI4", "CNI16Q",
                                          "CNI512Q", "CNI16Qm"};

/** Latency for a cell, or a negative sentinel ("n/a"). */
double
cellValue(const sweep::Figure &fig, const std::string &placement,
          const std::string &ni, const std::string &bytes)
{
    return fig.metric(
        {{"placement", placement}, {"ni", ni}, {"bytes", bytes}},
        "microseconds", -1.0);
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
panel(const sweep::Figure &fig, const char *title,
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
            cell(cellValue(fig, placement, m, sz));
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    sweep::Figure fig(
        argc, argv,
        "(fixed NI/placement sweep: --net*/--window/--json honored)");

    // Machine-wide CLI flags overlay the base; the axes are the
    // figure's own grid.
    sweep::SweepSpec spec;
    spec.workload = "roundtrip";
    spec.base = {{"nodes", "2"}};
    for (const auto &[k, v] : fig.opts().netParams())
        sweep::bindParam(&spec.base, k, v);
    spec.axes = {{"placement", {"memory", "io", "cache"}},
                 {"ni", kModels},
                 {"bytes", kSizes}};
    spec.seeds = {fig.opts().seedOr(1)};
    spec.allowInvalid = true; // the grid's "n/a" cells are by design
    // The memory-bus panel builds whenever the machine-wide flags are
    // coherent (--coherence directory on the ideal net is not).
    fig.run(spec, {{"placement", "memory"}, {"ni", "CNI16Qm"}});
    fig.listReports();

    std::printf("Figure 6: round-trip latency (microseconds)\n");

    panel(fig, "(a) memory bus", "memory",
          {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"});
    panel(fig, "(b) I/O bus", "io", {"NI2w", "CNI4", "CNI16Q", "CNI512Q"});

    std::printf("\n(c) alternate buses\n%8s", "bytes");
    std::printf("%14s%16s%14s\n", "NI2w/cache", "CNI16Qm/memory",
                "CNI512Q/io");
    for (const auto &sz : kSizes) {
        std::printf("%8s", sz.c_str());
        cell(cellValue(fig, "cache", "NI2w", sz), 14);
        cell(cellValue(fig, "memory", "CNI16Qm", sz), 16);
        cell(cellValue(fig, "io", "CNI512Q", sz), 14);
        std::printf("\n");
    }

    // Headline numbers (abstract): improvement at 64 bytes. The I/O-bus
    // comparison only exists on backends with a bridged I/O bus.
    const double ni2wMem = cellValue(fig, "memory", "NI2w", "64");
    const double cniMem = cellValue(fig, "memory", "CNI16Qm", "64");
    const double ni2wIo = cellValue(fig, "io", "NI2w", "64");
    const double cniIo = cellValue(fig, "io", "CNI512Q", "64");
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
    fig.opts().emitReports();
    return 0;
}
