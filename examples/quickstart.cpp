/**
 * @file
 * Quickstart: describe a two-node machine, exchange messages through
 * its endpoints, and dump the JSON report — the smallest complete use
 * of the library.
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

constexpr Port kPingPort = 1;
constexpr Port kReplyPort = 2;

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

    // 2. Talk through endpoints. Node 1 answers each ping with an
    //    upper-cased copy of the payload, sent to the pinger's reply
    //    port. The served count is node-1-local state and the reply
    //    node-0-local state — workload variables must never be shared
    //    across nodes (racy and nondeterministic under the sharded
    //    kernel's --threads mode).
    int served = 0;
    m.endpoint(1).onMessage(
        kPingPort, [&m, &served](const UserMsg &u) -> CoTask<void> {
            std::vector<std::uint8_t> upper = u.payload;
            for (auto &c : upper)
                c = static_cast<std::uint8_t>(std::toupper(c));
            ++served;
            co_await m.endpoint(1).send(u.src, kReplyPort, upper.data(),
                                        upper.size());
        });
    std::string reply;
    m.endpoint(0).onMessage(
        kReplyPort, [&reply](const UserMsg &u) -> CoTask<void> {
            reply.assign(u.payload.begin(), u.payload.end());
            co_return;
        });

    // 3. Spawn one program per node. Programs are coroutines that send,
    //    poll, and compute against the simulated processor. Time reads
    //    come from the node's own queue (m.eq(node)), which is correct
    //    on both the serial and the sharded kernel.
    m.spawn(0, [](Machine &m, std::string *reply) -> CoTask<void> {
        const char ping[] = "ping";
        co_await m.endpoint(0).send(1, kPingPort, ping, sizeof(ping) - 1);
        co_await m.endpoint(0).pollUntil([=] { return !reply->empty(); });
        std::printf("node 0: rpc reply \"%s\" after %.2f us\n",
                    reply->c_str(), m.eq(0).now() / kCyclesPerMicrosecond);
    }(m, &reply));
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
