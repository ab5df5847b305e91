/**
 * @file
 * Table 1: summary of the five network interface devices, printed from
 * the live device models so the table cannot drift from the code. Also
 * lists the NiRegistry, the ground truth for constructible models.
 */

#include <cstdio>

#include "core/machine.hpp"
#include "ni/registry.hpp"
#include "sim/cli.hpp"
#include "sim/logging.hpp"

using namespace cni;

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
    for (const char *m : {"CNI16Q", "CNI512Q", "CNI16Qm"}) {
        Machine sys = Machine::describe().nodes(2).ni(m).build();
        const auto &qc = static_cast<Cniq &>(sys.ni(0)).config();
        std::printf("  %-8s sendQ=%3d blocks, recvQ=%3d blocks, "
                    "devCache=%3d blocks, home=%s\n",
                    qc.model.c_str(), qc.sendQueueBlocks,
                    qc.recvQueueBlocks, qc.recvCacheBlocks,
                    qc.recvHomeMemory ? "main memory" : "device");
        report::global().add(std::string("table1 ") + m, sys.report());
    }
    opts.emitReports();
    return 0;
}
