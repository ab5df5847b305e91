/**
 * @file
 * Figure 8: macrobenchmark speedups of the five NIs on the memory, I/O,
 * and cache buses, normalized to NI2w on the memory bus; plus the
 * Section 5.2 memory-bus occupancy comparison (CQ-based CNIs cut
 * occupancy by up to 66% on average, CNI4 by 23%).
 *
 * The whole figure is one SweepSpec (sweep/figure.hpp): the app ×
 * placement × NI grid of "macro" points with allow_invalid (unbuildable
 * cells print as n/a), so --spec/--points work as in every figure.
 *
 * Per-run config+stats land in fig8_macro.report.json (see --json);
 * --seed overrides the workload-synthesis seeds, --nodes the machine
 * size.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "sim/logging.hpp"
#include "sweep/figure.hpp"

using namespace cni;

int
main(int argc, char **argv)
{
    setVerbose(false);
    sweep::Figure fig(argc, argv,
                      "(fixed NI/placement sweep: --nodes, --seed, "
                      "--json and the shared net/coherence/kernel "
                      "flags are honored)");
    const cli::Options &opts = fig.opts();
    const auto &apps = macrobenchmarkNames();

    sweep::SweepSpec spec;
    spec.workload = "macro";
    spec.base = opts.netParams();
    if (const std::string *nodes = opts.given("nodes"))
        sweep::bindParam(&spec.base, "nodes", *nodes);
    spec.axes = {{"app", apps},
                 {"placement", {"memory", "io", "cache"}},
                 {"ni", {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"}}};
    spec.seeds = {opts.seedOr(0)}; // 0: each app's paper input
    spec.allowInvalid = true;
    // The NI2w/mem baseline every ratio divides by must build.
    fig.run(spec, {{"placement", "memory"}, {"ni", "NI2w"}});

    // A cell's metric; 0 for a combination the flags cannot build.
    auto value = [&](const std::string &app, const std::string &ni,
                     const char *placement, const char *metric) {
        return fig.metric(
            {{"app", app}, {"placement", placement}, {"ni", ni}}, metric,
            0);
    };
    auto speedup = [&](const std::string &app, const std::string &ni,
                       const char *placement) {
        const double ticks = value(app, ni, placement, "cycles");
        return ticks == 0 ? 0.0 // 0.00 = n/a combination
                          : value(app, "NI2w", "memory", "cycles") / ticks;
    };

    std::printf("Figure 8: speedup over NI2w on the memory bus\n");
    std::printf("\n(a) memory bus\n%-10s", "app");
    for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"})
        std::printf("%10s", m);
    std::printf("\n");
    for (const auto &app : apps) {
        std::printf("%-10s", app.c_str());
        for (const char *m :
             {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"}) {
            std::printf("%10.2f", speedup(app, m, "memory"));
        }
        std::printf("\n");
    }

    std::printf("\n(b) I/O bus\n%-10s", "app");
    for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q"})
        std::printf("%10s", m);
    std::printf("\n");
    for (const auto &app : apps) {
        std::printf("%-10s", app.c_str());
        for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q"})
            std::printf("%10.2f", speedup(app, m, "io"));
        std::printf("\n");
    }

    std::printf("\n(c) alternate buses\n%-10s%12s%16s%14s\n", "app",
                "NI2w/cache", "CNI16Qm/mem", "CNI512Q/io");
    for (const auto &app : apps) {
        std::printf("%-10s%12.2f%16.2f%14.2f\n", app.c_str(),
                    speedup(app, "NI2w", "cache"),
                    speedup(app, "CNI16Qm", "memory"),
                    speedup(app, "CNI512Q", "io"));
    }

    // Section 5.2: memory-bus occupancy reduction on the memory bus.
    std::printf("\nSection 5.2: memory-bus occupancy vs NI2w (memory bus)\n");
    std::printf("%-10s%10s%12s\n", "app", "CNI4", "best CQ-CNI");
    double cni4Avg = 0, cqAvg = 0;
    for (const auto &app : apps) {
        const double base = value(app, "NI2w", "memory", "mem_bus_occupied");
        if (base == 0) {
            std::printf("%-10s%10s%12s\n", app.c_str(), "n/a", "n/a");
            continue;
        }
        const double cni4 =
            value(app, "CNI4", "memory", "mem_bus_occupied") / base;
        double bestCq = 1e9;
        for (const char *m : {"CNI16Q", "CNI512Q", "CNI16Qm"}) {
            bestCq = std::min(
                bestCq, value(app, m, "memory", "mem_bus_occupied") / base);
        }
        std::printf("%-10s%9.0f%%%11.0f%%\n", app.c_str(),
                    100.0 * (1.0 - cni4), 100.0 * (1.0 - bestCq));
        cni4Avg += 1.0 - cni4;
        cqAvg += 1.0 - bestCq;
    }
    std::printf("%-10s%9.0f%%%11.0f%%   (paper: 23%% and up to 66%%)\n",
                "average", 100.0 * cni4Avg / apps.size(),
                100.0 * cqAvg / apps.size());

    // Headline: best-on-each-bus improvement ranges.
    std::printf("\nheadline: CNI16Qm/mem improvement over NI2w/mem "
                "(paper: 17-53%%)\n");
    for (const auto &app : apps) {
        std::printf("  %-10s %+5.0f%%\n", app.c_str(),
                    100.0 * (speedup(app, "CNI16Qm", "memory") - 1.0));
    }
    std::printf("headline: CNI512Q/io improvement over NI2w/io "
                "(paper: 30-88%%)\n");
    for (const auto &app : apps) {
        const double base = value(app, "NI2w", "io", "cycles");
        const double cni = value(app, "CNI512Q", "io", "cycles");
        if (base == 0 || cni == 0) {
            // I/O-bus placements were not buildable under the selected
            // flags (e.g. --coherence directory).
            std::printf("  %-10s %5s\n", app.c_str(), "n/a");
            continue;
        }
        const double s = base / cni;
        std::printf("  %-10s %+5.0f%%\n", app.c_str(), 100.0 * (s - 1.0));
    }
    opts.emitReports(fig.reports());
    return 0;
}
