/**
 * @file
 * Multiprogramming on a CNI (Section 2.4): two user processes per node
 * share one CNI512Q device through separate per-context cachable queues,
 * with no operating-system involvement per message and no interference
 * between the contexts' queues.
 *
 *   $ ./multiprogramming [--contexts 2] [--ni CNI512Q]
 */

#include <cstdio>

#include "core/machine.hpp"
#include "sim/cli.hpp"

using namespace cni;

int
main(int argc, char **argv)
{
    const cli::Options opts = cli::parse(argc, argv);
    // Two user processes per node share the device through per-context
    // queues — only the CNIiQ family supports this (the builder rejects
    // anything else up front).
    MachineBuilder desc =
        Machine::describe().nodes(2).ni("CNI512Q").contexts(2);
    opts.apply(desc);
    Machine m = desc.build();
    const int contexts = m.spec().node(0).contexts;

    std::vector<int> got(contexts, 0);
    for (int ctx = 0; ctx < contexts; ++ctx) {
        m.endpoint(1, ctx).onMessage(
            1, [&, ctx](const UserMsg &u) -> CoTask<void> {
                // Each process only ever sees its own context's traffic.
                if (u.userTag != std::uint64_t(ctx))
                    std::printf("CROSS-CONTEXT LEAK!\n");
                ++got[ctx];
                co_return;
            });
    }

    constexpr int kPerProcess = 25;
    for (int ctx = 0; ctx < contexts; ++ctx) {
        // Process `ctx` on node 0 streams messages to its peer process
        // on node 1 through its own queues.
        m.spawn(0, [](Machine &m, int ctx) -> CoTask<void> {
            std::uint8_t payload[96];
            for (std::size_t i = 0; i < sizeof(payload); ++i)
                payload[i] = std::uint8_t(ctx * 100 + i);
            for (int i = 0; i < kPerProcess; ++i) {
                co_await m.endpoint(0, ctx).send(1, 1, payload,
                                                 sizeof(payload),
                                                 std::uint64_t(ctx));
            }
        }(m, ctx));
        m.spawn(1, [](Machine &m, int ctx, int *got) -> CoTask<void> {
            co_await m.endpoint(1, ctx).pollUntil(
                [=] { return *got >= kPerProcess; });
        }(m, ctx, &got[ctx]));
    }

    const Tick end = m.run();
    std::printf("%d processes per node, one shared %s device\n", contexts,
                m.spec().node(0).ni.c_str());
    for (int ctx = 0; ctx < contexts; ++ctx)
        std::printf("process %d received %d\n", ctx, got[ctx]);
    std::printf("(simulated %.2f us)\n", end / kCyclesPerMicrosecond);
    std::printf("the device kept only per-context base/bound state; the "
                "queues themselves\nlive in cachable memory, so adding "
                "processes adds no device hardware.\n");
    opts.emitReports({{"multiprogramming", m.report()}});
    return 0;
}
