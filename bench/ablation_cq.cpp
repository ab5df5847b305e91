/**
 * @file
 * Ablation of the three Section 2.2 cachable-queue optimizations —
 * lazy pointers, message valid bits, sense reverse — on the simulated
 * CNI512Q (round-trip latency, bandwidth, and coherence-traffic
 * counters), plus the host SPSC queue's lazy-pointer refresh rate.
 *
 * Paper claims validated here:
 *  - lazy pointers: the sender checks the real head only ~twice per pass
 *    when the queue stays at most half full;
 *  - message valid bits: polling an empty queue generates no bus traffic
 *    (and no uncached loads), unlike polling a tail register;
 *  - sense reverse: the receiver never takes ownership of queue blocks,
 *    removing one bus transaction per message.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/cq.hpp"
#include "core/microbench.hpp"
#include "sim/cli.hpp"
#include "sim/logging.hpp"

using namespace cni;

namespace
{

std::string g_model = "CNI512Q"; //!< --ni picks the CNIiQ model to ablate
int g_nodes = 2;                 //!< --nodes

CniqConfig
presetFor(const std::string &model)
{
    if (auto preset = CniqConfig::preset(model))
        return *preset;
    cni_fatal("the cachable-queue ablation needs a CNIiQ model "
              "(CNI16Q, CNI512Q, CNI16Qm), not '%s'",
              model.c_str());
}

MachineSpec
specWith(bool lazy, bool valid, bool sense)
{
    CniqConfig qc = presetFor(g_model);
    qc.lazySendHead = lazy;
    qc.msgValidBits = valid;
    qc.senseReverse = sense;
    return Machine::describe()
        .nodes(g_nodes)
        .ni(g_model)
        .cniq(qc)
        .spec();
}

void
runCase(cli::Runs *runs, const char *label, bool lazy, bool valid,
        bool sense)
{
    const MachineSpec spec = specWith(lazy, valid, sense);
    std::string latReport, bwReport;
    const auto lat = roundTripLatency(spec, 64, 16, 4, {&latReport});
    const auto bw = streamBandwidth(spec, 256, 64, 8, {&bwReport});
    runs->emplace_back("roundTripLatency " + spec.label() + " 64B",
                       std::move(latReport));
    runs->emplace_back("streamBandwidth " + spec.label() + " 256B",
                       std::move(bwReport));

    // Coherence traffic counters from a fixed stream.
    Machine sys(spec);
    Endpoint &e0 = sys.endpoint(0);
    Endpoint &e1 = sys.endpoint(1);
    int rx = 0;
    e1.onMessage(1, [&](const UserMsg &) -> CoTask<void> {
        ++rx;
        co_return;
    });
    std::vector<std::uint8_t> p(64, 1);
    sys.spawn(0, [](Endpoint &e, std::vector<std::uint8_t> &p)
                  -> CoTask<void> {
        for (int i = 0; i < 50; ++i)
            co_await e.send(1, 1, p.data(), p.size());
    }(e0, p));
    sys.spawn(1, [](Endpoint &e, int *rx) -> CoTask<void> {
        co_await e.pollUntil([=] { return *rx >= 50; });
    }(e1, &rx));
    sys.run();
    runs->emplace_back(std::string("ablation_cq stream ") + label,
                       sys.report());
    const auto st = sys.aggregateStats();

    std::printf("%-28s %8.2f %8.1f %10llu %10llu %10llu\n", label,
                lat.microseconds, bw.megabytesPerSec,
                static_cast<unsigned long long>(
                    st.counter("txn_UncachedRead")),
                static_cast<unsigned long long>(st.counter("txn_Upgrade")),
                static_cast<unsigned long long>(
                    st.counter("send_shadow_refreshes")));
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const cli::Options opts =
        cli::parse(argc, argv, "(--ni picks the ablated CNIiQ model)");
    MachineBuilder flags = Machine::describe().nodes(g_nodes).ni(g_model);
    g_model = opts.apply(flags).spec().defaults.ni;
    g_nodes = flags.spec().numNodes;
    std::printf("Cachable-queue optimization ablation (%s, memory "
                "bus, 64B messages; traffic columns from a 50-message "
                "stream)\n\n",
                g_model.c_str());
    std::printf("%-28s %8s %8s %10s %10s %10s\n", "configuration", "rt-us",
                "MB/s", "uncRd", "upgrades", "shadowRef");
    cli::Runs runs;
    runCase(&runs, "all optimizations", true, true, true);
    runCase(&runs, "no lazy pointers", false, true, true);
    runCase(&runs, "no valid bits (poll tail)", true, false, true);
    runCase(&runs, "no sense reverse (clear)", true, true, false);
    runCase(&runs, "none", false, false, false);

    // Host-queue lazy-pointer claim (Section 2.2).
    std::printf("\nhost SPSC cachable queue, lazy-pointer refresh rate:\n");
    for (std::size_t cap : {8u, 64u, 512u}) {
        cq::SpscCachableQueue<int> q(cap);
        const int passes = 64;
        for (std::size_t i = 0; i < cap * passes; ++i) {
            (void)q.tryEnqueue(int(i));
            int v;
            (void)q.tryDequeue(v);
        }
        std::printf("  capacity %4zu: %.2f shared-head reads per pass "
                    "(paper bound: ~2 when at most half full)\n",
                    q.capacity(),
                    double(q.shadowRefreshes()) / passes);
    }
    opts.emitReports(runs);
    return 0;
}
