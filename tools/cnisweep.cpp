/**
 * @file
 * cnisweep — run one SweepSpec file (the cnid job body, see
 * sweep/spec.hpp) as every figure runs its sweep, through
 * sweep::Figure: the validator gate, runPoint() for every point in
 * expansion order, and --points/--json. Prints one line per point: its key, status, axis
 * values, then its metrics (or why it is invalid).
 *
 *   cnisweep SPEC.json [machine flags] [--seed S] [--spec PATH]
 *            [--points PATH] [--json PATH|-|none]
 *
 * A given machine flag binds that parameter on every point, replacing
 * an axis of the same name; --seed replaces the spec's seeds. Exit 1
 * when a point outside allow_invalid does not build, or any point runs
 * out of its tick budget (under allow_invalid, the first point must
 * build). bench/specs/ holds the checked-in sweeps.
 */

#include <vector>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/logging.hpp"
#include "sweep/figure.hpp"
#include "sweep/jsonin.hpp"

using namespace cni;

int
main(int argc, char **argv)
{
    setVerbose(false);
    sweep::Figure fig(argc, argv, "SPEC.json");
    const cli::Options &opts = fig.opts();
    if (opts.positional.size() != 1)
        cni_fatal("usage: cnisweep SPEC.json [flags] (see --help)");

    const std::string &path = opts.positional[0];
    std::ifstream in(path);
    if (!in)
        cni_fatal("cannot read %s", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    sweep::JsonValue doc;
    sweep::SweepSpec spec;
    std::string why;
    if (!sweep::parseJson(text.str(), &doc, &why) ||
        !sweep::SweepSpec::fromJson(doc, &spec, &why))
        cni_fatal("%s: %s", path.c_str(), why.c_str());
    for (const auto &[k, v] : opts.machine) {
        std::erase_if(spec.axes, [&k](const sweep::SweepAxis &a) {
            return a.name == k;
        });
        sweep::bindParam(&spec.base, k, v);
    }
    if (opts.seed)
        spec.seeds = {*opts.seed};

    fig.run(spec);
    fig.listReports();
    for (std::size_t i = 0; i < fig.results().size(); ++i) {
        const sweep::PointResult &r = fig.results()[i];
        std::string line = r.key + " " + r.status;
        for (const sweep::SweepAxis &a : spec.axes) {
            line += " " + a.name + "=" +
                    sweep::paramOr(fig.points()[i].params, a.name, "");
        }
        line += " |";
        for (const auto &[k, v] : r.metrics) {
            char value[32];
            std::snprintf(value, sizeof value, "%.10g", v);
            line += " " + k + "=" + value;
        }
        if (r.status == "invalid")
            line += " " + r.error;
        std::printf("%s\n", line.c_str());
    }
    opts.emitReports();
    return 0;
}
