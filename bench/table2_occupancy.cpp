/**
 * @file
 * Table 2: bus occupancy for network interface and memory accesses, in
 * processor cycles — measured on the live simulator (idle system, single
 * operation) and compared against the paper's specification.
 *
 * The table is one SweepSpec of the runner's "occupancy" workload
 * (sweep/figure.hpp), an op x placement grid with allow_invalid, so
 * --spec/--points work as in every figure. The rig is built through
 * the CoherenceRegistry, so the shared fabric and coherence flags select
 * the backend under measurement: the default snoop fabric reproduces
 * the paper's Table 2; --coherence directory measures the same
 * operations through the home-node directory (memory-bus placement
 * only — directory cells for the cache and I/O buses print "-", as do
 * the cells the paper defines no operation for).
 */

#include <cstdio>
#include <string>

#include "sim/json.hpp"
#include "sim/logging.hpp"
#include "sweep/figure.hpp"

using namespace cni;

namespace
{

/** One table row: the runner's op and the paper's cells (0: none). */
struct Row
{
    const char *op;
    const char *label;
    Tick paper[3]; //!< cache, memory and I/O bus
};

const Row kRows[] = {
    {"uncached-load", "uncached 8-byte load from NI", {4, 28, 48}},
    {"uncached-store", "uncached 8-byte store to NI", {4, 12, 32}},
    {"ni-to-cpu", "cache-to-cache transfer CNI -> CPU (64B)", {0, 42, 76}},
    {"cpu-to-ni", "cache-to-cache transfer CPU -> CNI (64B)", {0, 42, 62}},
    {"memory-to-cache", "memory-to-cache transfer (64B)", {0, 42, 0}},
};

const char *const kBuses[] = {"cache", "memory", "io"};

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    sweep::Figure fig(argc, argv,
                      "(the fabric and coherence flags select the measured "
                      "backend)");
    const cli::Options &opts = fig.opts();

    sweep::SweepSpec spec;
    spec.workload = "occupancy";
    spec.base = opts.netParams();
    spec.axes = {{"op", {}}, {"placement", {}}};
    for (const Row &row : kRows)
        spec.axes[0].values.emplace_back(row.op);
    for (const char *bus : kBuses)
        spec.axes[1].values.emplace_back(bus);
    spec.allowInvalid = true; // ops without a form on a bus print "-"
    fig.run(spec, {{"op", "uncached-load"}, {"placement", "memory"}});

    std::printf("Table 2: bus occupancy in processor cycles "
                "(measured/paper)\n\n");
    std::printf("%-44s %10s %10s %10s\n", "operation", "cache bus",
                "memory bus", "I/O bus");
    cli::Runs runs;
    for (const Row &row : kRows) {
        // This bench measures raw bus fabric, not a whole machine, so it
        // reports its own measured/spec cells.
        JsonWriter w;
        w.beginObject();
        w.key("operation").value(row.label);
        std::printf("%-44s", row.label);
        for (int b = 0; b < 3; ++b) {
            const auto v = static_cast<unsigned long long>(
                fig.metric({{"op", row.op}, {"placement", kBuses[b]}},
                           "cycles", 0));
            w.key(std::string(kBuses[b]) + "_bus").value(v);
            // paper 0: the paper defines no such cell; v 0: the point
            // is invalid (no such placement, or no form on the bus).
            char cell[32];
            if (row.paper[b] == 0 || v == 0)
                std::snprintf(cell, sizeof cell, "%8s", "-");
            else
                std::snprintf(cell, sizeof cell, "%5llu/%llu", v,
                              static_cast<unsigned long long>(row.paper[b]));
            std::printf(" %10s", cell);
        }
        std::printf("\n");
        for (int b = 0; b < 3; ++b) {
            w.key(std::string("paper_") + kBuses[b] + "_bus")
                .value(static_cast<unsigned long long>(row.paper[b]));
        }
        w.endObject();
        runs.emplace_back(row.label, w.str());
    }

    std::printf("\nnote: the posted uncached store completes for the "
                "processor after the\nmemory-bus phase (12 cycles); the "
                "value shown for the I/O bus is the\nI/O-side occupancy "
                "of the forwarded transaction.\n");
    opts.emitReports(runs);
    return 0;
}
