/**
 * @file
 * Diagnostic: one streamBandwidth measurement per NI model/placement with
 * progress output. Not part of the paper's tables.
 *
 *   $ ./diag_bw [bytes] [messages] [--ni MODEL] [--nodes N] ...
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
    const cli::Options opts =
        cli::parse(argc, argv, "[bytes] [messages]");
    const std::size_t bytes =
        !opts.positional.empty() ? std::stoul(opts.positional[0]) : 64;
    const int messages =
        opts.positional.size() > 1 ? std::atoi(opts.positional[1].c_str())
                                   : 256;

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
        std::printf("%-10s %-10s ...", c.ni, toString(c.p));
        std::fflush(stdout);
        auto r = streamBandwidth(spec, bytes, messages, messages / 8);
        std::printf(" %8.1f MB/s (%.3f rel)\n", r.megabytesPerSec,
                    r.relativeToLocalMax);
    }
    opts.emitReports();
    return 0;
}
