/**
 * @file
 * Quickstart: describe a two-node machine, exchange typed messages
 * through the Endpoint facade, and dump the JSON report — the smallest
 * complete use of the library.
 *
 *   $ ./quickstart [--ni CNI4] [--nodes 2] [--json -]
 */

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "sim/cli.hpp"
#include "sim/logging.hpp"

using namespace cni;

int
main(int argc, char **argv)
{
    const cli::Options opts = cli::parse(argc, argv);

    // 1. Describe the machine: two nodes, CNI16Qm devices on the
    //    coherent memory bus (the paper's best memory-bus design). Any
    //    registered NI model name works; --ni overrides it.
    MachineBuilder desc = Machine::describe().nodes(2).ni("CNI16Qm");
    opts.apply(desc);
    if (desc.spec().numNodes < 2)
        cni_fatal("quickstart needs at least two nodes");
    Machine m = desc.build();

    // 2. Talk through endpoints. Node 1 serves an RPC: it answers each
    //    request with an upper-cased copy of the payload. The served
    //    count is node-1-local state — workload variables must never be
    //    shared across nodes (racy and nondeterministic under the
    //    sharded kernel's --threads mode).
    int served = 0;
    m.endpoint(1).serve(1, [&served](const UserMsg &u)
                               -> CoTask<std::vector<std::uint8_t>> {
        std::vector<std::uint8_t> reply = u.payload;
        for (auto &c : reply)
            c = static_cast<std::uint8_t>(std::toupper(c));
        ++served;
        co_return reply;
    });

    // 3. Spawn one program per node. Programs are coroutines that send,
    //    poll, and compute against the simulated processor. Time reads
    //    come from the node's own queue (m.eq(node)), which is correct
    //    on both the serial and the sharded kernel.
    m.spawn(0, [](Machine &m) -> CoTask<void> {
        const char ping[] = "ping";
        UserMsg reply =
            co_await m.endpoint(0).rpc(1, 1, ping, sizeof(ping) - 1);
        std::printf("node 0: rpc reply \"%s\" after %.2f us\n",
                    std::string(reply.payload.begin(),
                                reply.payload.end())
                        .c_str(),
                    m.eq(0).now() / kCyclesPerMicrosecond);
    }(m));
    m.spawn(1, [](Machine &m, int *served) -> CoTask<void> {
        co_await m.endpoint(1).pollUntil([=] { return *served >= 1; });
    }(m, &served));

    // 4. Run to completion and inspect the machine.
    const Tick end = m.run();
    std::printf("simulation finished at cycle %llu (%.2f us); "
                "memory-bus occupancy %llu cycles\n",
                static_cast<unsigned long long>(end),
                end / kCyclesPerMicrosecond,
                static_cast<unsigned long long>(m.memBusOccupiedCycles()));

    // 5. One JSON document carries the whole configuration + statistics.
    report::global().add("quickstart", m.report());
    opts.emitReports();
    return 0;
}
