/**
 * @file
 * Table 1: summary of the five network interface devices. The table's
 * rows are the paper's, kept here as constants; the NiRegistry's names
 * (the models a machine can build) and the queue geometry of live
 * CNIiQ devices are printed under them to cross-check the rows.
 *
 * The subscript i of NIiX / CNIiX is the portion of the NI queue
 * exposed to the processor (in cache blocks, or 4-byte words with the
 * 'w' suffix). X empty exposes part/whole of one message; X = Q manages
 * the exposed queue with explicit head/tail pointers; X = Qm
 * additionally homes the queue in main memory.
 */

#include <array>
#include <cstdio>

#include "core/machine.hpp"
#include "ni/registry.hpp"
#include "sim/cli.hpp"
#include "sim/logging.hpp"

using namespace cni;

namespace
{

/** One row of Table 1. */
struct TaxonomyRow
{
    const char *device;
    const char *exposedQueueSize;
    const char *queuePointers;
    const char *home;
};

constexpr std::array<TaxonomyRow, 5> kTable1 = {{
    {"NI2w", "2 words", "-", "-"},
    {"CNI4", "4 cache blocks", "-", "device"},
    {"CNI16Q", "16 cache blocks", "explicit", "device"},
    {"CNI512Q", "512 cache blocks", "explicit", "device"},
    {"CNI16Qm", "16 cache blocks", "explicit", "main memory"},
}};

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const cli::Options opts = cli::parse(argc, argv);
    std::printf("Table 1: Summary of Network Interface Devices\n\n");
    std::printf("%-10s %-18s %-15s %-12s\n", "NI/CNI", "Exposed Queue Size",
                "Queue Pointers", "Home");
    for (const auto &row : kTable1) {
        std::printf("%-10s %-18s %-15s %-12s\n", row.device,
                    row.exposedQueueSize, row.queuePointers, row.home);
    }

    std::printf("\nregistered NI models: %s\n",
                NiRegistry::instance().namesCsv().c_str());

    // Cross-check the CNIiQ rows against the actual device configs.
    std::printf("\nlive device configurations:\n");
    cli::Runs runs;
    for (const char *m : {"CNI16Q", "CNI512Q", "CNI16Qm"}) {
        Machine sys = Machine::describe().nodes(2).ni(m).build();
        const auto &qc = static_cast<Cniq &>(sys.ni(0)).config();
        std::printf("  %-8s sendQ=%3d blocks, recvQ=%3d blocks, "
                    "devCache=%3d blocks, home=%s\n",
                    qc.model.c_str(), qc.sendQueueBlocks,
                    qc.recvQueueBlocks, qc.recvCacheBlocks,
                    qc.recvHomeMemory ? "main memory" : "device");
        runs.emplace_back(std::string("table1 ") + m, sys.report());
    }
    opts.emitReports(runs);
    return 0;
}
