/**
 * @file
 * Diagnostic: run one 64-byte ping-pong workload per NI model on the
 * memory bus and dump the aggregate statistics. Useful when validating
 * model changes; not part of the paper's tables.
 */

#include <iostream>
#include <vector>

#include "core/microbench.hpp"
#include "sim/cli.hpp"
#include "sim/logging.hpp"

using namespace cni;

int
main(int argc, char **argv)
{
    setVerbose(false);
    const cli::Options opts = cli::parse(argc, argv, "[bytes]");
    const std::size_t bytes =
        !opts.positional.empty() ? std::stoul(opts.positional[0]) : 64;

    for (const char *m : {"CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"}) {
        Machine sys = Machine::describe().nodes(2).ni(m).build();
        Endpoint &e0 = sys.endpoint(0);
        Endpoint &e1 = sys.endpoint(1);
        int pongs = 0;
        std::vector<std::uint8_t> payload(bytes, 1);
        e1.onMessage(1, [&](const UserMsg &u) -> CoTask<void> {
            co_await e1.send(0, 2, u.payload.data(), u.payload.size());
        });
        e0.onMessage(2, [&](const UserMsg &) -> CoTask<void> {
            ++pongs;
            co_return;
        });
        sys.spawn(0, [](Endpoint &e, std::vector<std::uint8_t> &p,
                        int &pongs) -> CoTask<void> {
            for (int r = 0; r < 10; ++r) {
                co_await e.send(1, 1, p.data(), p.size());
                const int want = r + 1;
                co_await e.pollUntil([&] { return pongs >= want; });
            }
        }(e0, payload, pongs));
        // Node 0 counts the pongs: node 1 must poll each time.
        sys.spawn(1, [](Endpoint &e, int *pongs) -> CoTask<void> {
            co_await e.pollEachUntil([=] { return *pongs >= 10; });
        }(e1, &pongs));
        const Tick t = sys.run();

        std::cout << "==== " << sys.spec().label() << " " << bytes
                  << "B x10 round trips: " << t << " cycles ("
                  << t / kCyclesPerMicrosecond / 10 << " us/rt)\n";
        sys.aggregateStats().dump(std::cout);
        std::cout << "\n";
        report::global().add(std::string("diag_stats ") + m,
                             sys.report());
    }
    opts.emitReports();
    return 0;
}
