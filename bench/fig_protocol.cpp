/**
 * @file
 * Protocol sweep: producer-consumer vs migratory sharing across the
 * directory-family coherence backends — the experiment that motivates
 * the update/invalidate hybrid.
 *
 * Two coherent agents on node 0 (the processor cache and the NI device
 * cache — the only sharing pair the machine's per-node address map
 * allows) contend for remote-homed blocks:
 *
 *  - producer-consumer: the writer keeps producing words the reader
 *    immediately consumes. Invalidation re-fetches the block on every
 *    hand-off (upgrade + full read miss per round); an update protocol
 *    pushes the word and the consumer's read stays a cache hit.
 *  - migratory: each agent in turn grabs the block and works on it
 *    privately (one read, then a burst of writes). Invalidation pays one
 *    ownership transfer per phase and the rest are silent hits; a pure
 *    update protocol pushes every write to the idle previous owner.
 *
 * "dragon" must win the first and lose the second; "directory" the
 * reverse; "hybrid" must track the winner on both (the idle sharer's
 * useless-update counter trips and the line falls back to invalidate
 * mode mid-phase).
 *
 * The sweep is one SweepSpec of the runner's "protocol" workload
 * (sweep/figure.hpp), so --spec/--points work as in every figure. The
 * coherence flags are honoured and every other machine flag is a usage
 * error: the rig fixes the rest. --coherence restricts the sweep;
 * --hybrid-threshold tunes the flip point (default here: 1 — flip on
 * the second unread update). Per-run config+counters land in
 * fig_protocol.report.json (--json).
 */

#include <cstdio>
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
                      "(protocol sweep; --coherence picks a single backend)");
    const cli::Options &opts = fig.opts();

    sweep::SweepSpec spec;
    spec.workload = "protocol";
    for (const auto &[k, v] : opts.machine)
        sweep::bindParam(&spec.base, k, v);
    const std::string *coherence = opts.given("coherence");
    spec.axes = {{"coherence", coherence ? std::vector<std::string>{*coherence}
                                         : std::vector<std::string>{
                                               "directory", "dragon",
                                               "hybrid"}},
                 {"pattern", {"producer-consumer", "migratory"}}};
    fig.run(spec);

    std::printf("Sharing-pattern sweep: producer-consumer (%d rounds x 2 "
                "blocks) and migratory (%d phases x %d writes)\n\n",
                sweep::kProducerConsumerRounds, sweep::kMigratoryPhases,
                sweep::kMigratoryWrites);
    std::printf("%18s%12s%12s%10s%10s%10s%8s\n", "pattern", "backend",
                "cycles", "msgs", "updates", "useless", "flips");
    for (const std::string &backend : spec.axes[0].values) {
        for (const std::string &pattern : spec.axes[1].values) {
            const sweep::PointResult &r =
                *fig.find({{"coherence", backend}, {"pattern", pattern}});
            auto count = [&r](const char *name) {
                return static_cast<unsigned long long>(r.metric(name, 0));
            };
            std::printf("%18s%12s%12llu%10llu%10llu%10llu%8llu\n",
                        pattern.c_str(), backend.c_str(), count("cycles"),
                        count("protocol_msgs"), count("updates_sent"),
                        count("useless_updates"), count("mode_flips"));
        }
    }
    opts.emitReports(fig.reports());
    return 0;
}
