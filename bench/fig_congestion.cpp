/**
 * @file
 * Congestion sweep: many-to-one hotspot traffic across interconnect
 * models — an experiment the paper's fixed-latency pipe cannot express.
 *
 * Every node except node 0 streams messages at node 0 (the runner's
 * "hotspot" workload); the table reports completion time, delivered
 * bandwidth, and the fabric-level congestion signals (link/port wait
 * cycles, receiver retries). The ideal model shows zero fabric
 * contention by construction; mesh/torus expose path contention around
 * the hotspot, xbar isolates the endpoint bottleneck.
 *
 * With --net the sweep runs that single model; otherwise all four. The
 * table is one SweepSpec (sweep/figure.hpp) with a `net` axis, so
 * --spec/--points work as in every figure. Per-run config+stats
 * (including per-link occupancy) land in fig_congestion.report.json
 * (see --json).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.hpp"
#include "sweep/figure.hpp"

using namespace cni;

int
main(int argc, char **argv)
{
    setVerbose(false);
    sweep::Figure fig(argc, argv,
                      "(hotspot sweep; --net picks a single model)");
    const cli::Options &opts = fig.opts();

    // CNI4's small hardware FIFO makes the hotspot receiver refuse
    // deliveries under pressure, so the retry path is exercised too.
    sweep::SweepSpec spec;
    spec.workload = "hotspot";
    spec.base = {{"nodes", "16"}, {"ni", "CNI4"}};
    for (const auto &[k, v] : opts.machine)
        sweep::bindParam(&spec.base, k, v);
    const std::string *net = opts.given("net");
    spec.axes = {{"net", net ? std::vector<std::string>{*net}
                             : std::vector<std::string>{
                                   "ideal", "xbar", "mesh", "torus"}}};
    spec.seeds = {opts.seedOr(1)};
    fig.run(spec);

    const int senders =
        std::atoi(sweep::paramOr(spec.base, "nodes", "").c_str()) - 1;
    std::printf("Hotspot congestion: %d senders -> node 0, %d x %zu-byte "
                "messages each\n\n",
                senders, sweep::kHotspotMsgsPerSender,
                sweep::kHotspotMsgBytes);
    std::printf("%8s%12s%12s%14s%10s%12s\n", "net", "cycles", "MB/s",
                "fabric-wait", "retries", "retry-wait");
    for (const std::string &model : spec.axes[0].values) {
        const sweep::PointResult &r = *fig.find({{"net", model}});
        auto count = [&r](const char *name) {
            return static_cast<unsigned long long>(r.metric(name, 0));
        };
        std::printf("%8s%12llu%12.1f%14llu%10llu%12llu\n", model.c_str(),
                    count("cycles"), r.metric("mbps", 0),
                    count("fabric_wait"), count("retries"),
                    count("retry_wait"));
    }
    opts.emitReports(fig.reports());
    return 0;
}
