/**
 * @file
 * Compare every NI design at one message size — a one-screen view of the
 * paper's core result, using the microbenchmark API.
 *
 *   $ ./latency_sweep [message-bytes] [--ni MODEL]
 */

#include <cstdio>
#include <cstdlib>

#include "core/microbench.hpp"
#include "sim/cli.hpp"
#include "sim/logging.hpp"

using namespace cni;

int
main(int argc, char **argv)
{
    setVerbose(false);
    const cli::Options opts = cli::parse(argc, argv, "[message-bytes]");
    const std::size_t bytes =
        !opts.positional.empty()
            ? std::strtoul(opts.positional[0].c_str(), nullptr, 10)
            : 64;

    std::printf("%zu-byte user message, round-trip latency and one-way "
                "bandwidth\n\n",
                bytes);
    std::printf("%-10s %-12s %10s %12s\n", "device", "bus", "rt (us)",
                "bw (MB/s)");

    struct Case
    {
        const char *ni;
        NiPlacement p;
    };
    const Case cases[] = {
        {"NI2w", NiPlacement::CacheBus},
        {"NI2w", NiPlacement::MemoryBus},
        {"CNI4", NiPlacement::MemoryBus},
        {"CNI16Q", NiPlacement::MemoryBus},
        {"CNI512Q", NiPlacement::MemoryBus},
        {"CNI16Qm", NiPlacement::MemoryBus},
        {"NI2w", NiPlacement::IoBus},
        {"CNI4", NiPlacement::IoBus},
        {"CNI16Q", NiPlacement::IoBus},
        {"CNI512Q", NiPlacement::IoBus},
    };
    const std::string *only = opts.given("ni"); // --ni: one model only
    for (const auto &c : cases) {
        if (only && *only != c.ni)
            continue;
        const MachineSpec spec =
            Machine::describe().nodes(2).ni(c.ni).placement(c.p).spec();
        const auto lat = roundTripLatency(spec, bytes);
        const auto bw = streamBandwidth(spec, bytes);
        std::printf("%-10s %-12s %10.2f %12.1f\n", c.ni, toString(c.p),
                    lat.microseconds, bw.megabytesPerSec);
    }
    opts.emitReports();
    return 0;
}
