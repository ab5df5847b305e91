/**
 * @file
 * Congestion sweep: many-to-one hotspot traffic across interconnect
 * models — an experiment the paper's fixed-latency pipe cannot express.
 *
 * Every node except node 0 streams messages at node 0; the table
 * reports completion time, delivered bandwidth, and the fabric-level
 * congestion signals (link/port wait cycles, receiver retries). The
 * ideal model shows zero fabric contention by construction; mesh/torus
 * expose path contention around the hotspot, xbar isolates the endpoint
 * bottleneck.
 *
 * With --net the sweep runs that single model; otherwise all four.
 * Per-run config+stats (including per-link occupancy) land in
 * fig_congestion.report.json (see --json).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/cli.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/report.hpp"

using namespace cni;

namespace
{

struct CongestionResult
{
    Tick cycles = 0;
    double mbps = 0;
    std::uint64_t linkWait = 0;
    std::uint64_t retries = 0;
    std::uint64_t retryWait = 0;
};

CongestionResult
run(const cli::Options &opts, MachineBuilder b, const std::string &netModel,
    int msgsPerSender, std::size_t msgBytes)
{
    b.net(netModel); // the sweep's model wins over --net
    Machine m(b.spec());

    const int nodes = m.numNodes();
    const int senders = nodes - 1;
    const int expected = senders * msgsPerSender;
    int received = 0;
    m.endpoint(0).onMessage(
        1, [&received](const UserMsg &) -> CoTask<void> {
            ++received;
            co_return;
        });

    // Seeded start jitter staggers the senders, so different --seed
    // values exercise different injection collision patterns (the CI
    // determinism matrix runs two seeds through both kernels).
    Rng rng(opts.seedOr(1));
    std::vector<std::uint8_t> payload(msgBytes, 0xab);
    for (NodeId n = 1; n < nodes; ++n) {
        const Tick jitter = Tick(rng.below(64));
        m.spawn(n,
                [](Machine &m, NodeId n, Tick jitter,
                   const std::vector<std::uint8_t> &p,
                   int count) -> CoTask<void> {
                    co_await m.proc(n).delay(jitter);
                    for (int i = 0; i < count; ++i) {
                        co_await m.endpoint(n).send(0, 1, p.data(),
                                                    p.size());
                    }
                }(m, n, jitter, payload, msgsPerSender));
    }
    m.spawn(0, [](Machine &m, int &received, int expected) -> CoTask<void> {
        co_await m.endpoint(0).pollUntil(
            [&received, expected] { return received >= expected; });
    }(m, received, expected));

    CongestionResult r;
    r.cycles = m.run();
    const double us = r.cycles / kCyclesPerMicrosecond;
    r.mbps = (double(expected) * msgBytes) / us; // bytes/us == MB/s
    const StatSet &net = m.net().stats();
    r.linkWait = net.counter("link_wait_cycles") +
                 net.counter("egress_wait_cycles") +
                 net.counter("ingress_wait_cycles");
    r.retries = net.counter("delivery_retries");
    r.retryWait = net.counter("retry_wait_cycles");
    report::add(std::string(m.net().kind()) + "/hotspot", m.report());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const cli::Options opts = cli::parse(
        argc, argv, "(hotspot sweep; --net picks a single model)");

    // CNI4's small hardware FIFO makes the hotspot receiver refuse
    // deliveries under pressure, so the retry path is exercised too.
    MachineBuilder base = Machine::describe().nodes(16).ni("CNI4");
    opts.apply(base);
    const int nodes = base.spec().numNodes;
    const int msgsPerSender = 8;
    const std::size_t msgBytes = 244; // one full network message

    std::vector<std::string> models;
    if (const std::string *net = opts.given("net"))
        models = {*net};
    else
        models = {"ideal", "xbar", "mesh", "torus"};

    std::printf("Hotspot congestion: %d senders -> node 0, %d x %zu-byte "
                "messages each\n\n",
                nodes - 1, msgsPerSender, msgBytes);
    std::printf("%8s%12s%12s%14s%10s%12s\n", "net", "cycles", "MB/s",
                "fabric-wait", "retries", "retry-wait");
    for (const auto &model : models) {
        const CongestionResult r =
            run(opts, base, model, msgsPerSender, msgBytes);
        std::printf("%8s%12llu%12.1f%14llu%10llu%12llu\n", model.c_str(),
                    static_cast<unsigned long long>(r.cycles), r.mbps,
                    static_cast<unsigned long long>(r.linkWait),
                    static_cast<unsigned long long>(r.retries),
                    static_cast<unsigned long long>(r.retryWait));
    }
    opts.emitReports();
    return 0;
}
