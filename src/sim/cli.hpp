/**
 * @file
 * Shared command-line parsing for bench/ and examples/ binaries, so
 * configuration sweeps never require recompilation.
 *
 * The machine flags are the rows of the parameter table
 * (core/machine_params.hpp): `--name value` here means exactly what
 * `name=value` means in a SweepSpec, and `--help` lists them. Besides
 * those, every binary takes `--seed S` (workload-synthesis seed),
 * `--json PATH` (run-report output; "-" = stdout, "none" = off;
 * default <binary>.report.json) and `--help`.
 *
 * Passing the literal name "list" to --ni, --net, or --coherence
 * prints that registry's entries and exits 0, so users can discover
 * model names without reading source. The coherence listing includes
 * each backend's traits (medium, placements, knobs it consumes).
 *
 * Flags the user did not pass leave the binary's own defaults intact
 * (apply() only overrides what was given). parse() rejects a malformed
 * value with a message naming its flag (exit 1). Each binary keeps its
 * own list of measured runs and hands it to emitReports() at the end
 * of main.
 */

#ifndef CNI_SIM_CLI_HPP
#define CNI_SIM_CLI_HPP

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "coh/domain.hpp"
#include "core/machine.hpp"
#include "core/machine_params.hpp"
#include "net/network.hpp"
#include "ni/registry.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"
#include "sweep/spec.hpp"

namespace cni::cli
{

/** A binary's measured runs, in order: (label, report JSON document). */
using Runs = std::vector<std::pair<std::string, std::string>>;

struct Options
{
    std::string prog; //!< basename of argv[0]
    /** The machine flags given, as name=value parameters, table order. */
    sweep::ParamList machine;
    std::optional<std::uint64_t> seed;
    std::string json; //!< report path; "-" stdout, "none" disabled
    std::vector<std::string> positional;

    /** The value given for machine flag `name`, or nullptr. */
    const std::string *
    given(std::string_view name) const
    {
        for (const auto &[k, v] : machine) {
            if (k == name)
                return &v;
        }
        return nullptr;
    }

    /**
     * The given interconnect, coherence and kernel flags: the machine-
     * wide part, which benches with their own NI/placement grid put in
     * their sweep's base so --net/--window/--threads/... still work.
     */
    sweep::ParamList
    netParams() const
    {
        sweep::ParamList p;
        for (const auto &kv : machine) {
            if (findMachineParam(kv.first)->scope != ParamScope::Node)
                p.push_back(kv);
        }
        return p;
    }

    /** Overlay the explicitly-given flags onto a machine description. */
    MachineBuilder &
    apply(MachineBuilder &b) const
    {
        std::string why;
        for (const auto &[k, v] : machine) {
            if (!findMachineParam(k)->apply(b, v, &why))
                cni_fatal("%s", why.c_str());
        }
        return b;
    }

    std::uint64_t
    seedOr(std::uint64_t def) const
    {
        return seed ? *seed : def;
    }

    /**
     * Write `{"binary": prog, "runs": [{"label":..., "report":...}...]}`
     * to the --json target; call once at the end of main.
     */
    void
    emitReports(const Runs &runs) const
    {
        if (json == "none")
            return;
        JsonWriter w;
        w.beginObject();
        w.key("binary").value(prog);
        w.key("runs").beginArray();
        for (const auto &[label, report] : runs) {
            w.beginObject();
            w.key("label").value(label);
            w.key("report").raw(report);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        const std::string doc = w.str();
        if (json == "-") {
            std::fputs(doc.c_str(), stdout);
            std::fputc('\n', stdout);
            return;
        }
        std::ofstream out(json);
        if (!out) {
            cni_warn("cannot write run report to %s", json.c_str());
            return;
        }
        out << doc << "\n";
    }
};

/** The `--help` text: every table row, then the run flags. */
inline std::string
usage(const std::string &prog, const char *extraUsage = nullptr)
{
    std::string u = "usage: " + prog + " [flags] " +
                    (extraUsage ? extraUsage : "") +
                    "\nmachine flags (NAME=VALUE in a sweep spec):\n";
    for (const MachineParam &p : machineParams())
        u += p.usage();
    return u + "run flags:\n"
               "  --seed S                workload-synthesis seed\n"
               "  --json PATH|-|none      run report (default: " +
           prog +
           ".report.json)\n"
           "  --help                  print this text\n"
           "--ni list, --net list and --coherence list print the "
           "registered names.\n";
}

inline Options
parse(int argc, char **argv, const char *extraUsage = nullptr)
{
    Options o;
    const char *slash = std::strrchr(argv[0], '/');
    o.prog = slash ? slash + 1 : argv[0];
    o.json = o.prog + ".report.json";

    auto fail = [&](const std::string &msg) {
        std::fprintf(stderr, "%s: %s\n%s", o.prog.c_str(), msg.c_str(),
                     usage(o.prog, extraUsage).c_str());
        std::exit(1);
    };
    auto need = [&](int i) -> std::string {
        if (i + 1 >= argc)
            fail(std::string(argv[i]) + " needs an argument");
        return argv[i + 1];
    };

    // Machine flags are syntax-checked as they are read and kept per
    // table row: a repeated flag's last value wins, in table order.
    const std::span<const MachineParam> rows = machineParams();
    std::vector<std::optional<std::string>> given(rows.size());
    MachineBuilder scratch;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const MachineParam *p =
            a.rfind("--", 0) == 0 ? findMachineParam(a.substr(2)) : nullptr;
        if (p) {
            const std::string value = p->arg ? need(i++) : "true";
            std::string why;
            if (!p->apply(scratch, value, &why))
                fail(why);
            given[std::size_t(p - rows.data())] = value;
        } else if (a == "--seed") {
            const std::string value = need(i++);
            std::uint64_t seed = 0;
            if (!parseNumber(value, &seed))
                fail("--seed wants a non-negative integer, got '" + value +
                     "'");
            o.seed = seed;
        } else if (a == "--json") {
            o.json = need(i++);
        } else if (a == "--help" || a == "-h") {
            std::fputs(usage(o.prog, extraUsage).c_str(), stdout);
            std::exit(0);
        } else if (a.rfind("--", 0) == 0) {
            fail("unknown flag " + a);
        } else {
            o.positional.push_back(a);
        }
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (given[r])
            o.machine.emplace_back(rows[r].name, *given[r]);
    }

    // Registry discovery: `--ni list`, `--net list`, `--coherence list`
    // print the registered names and exit successfully.
    auto listAndExit = [](const char *what,
                          const std::vector<std::string> &names) {
        std::printf("registered %s models:\n", what);
        for (const auto &n : names)
            std::printf("  %s\n", n.c_str());
        std::exit(0);
    };
    const std::string *ni = o.given("ni");
    const std::string *net = o.given("net");
    const std::string *coherence = o.given("coherence");
    if (ni && *ni == "list")
        listAndExit("NI", NiRegistry::instance().names());
    if (net && *net == "list")
        listAndExit("interconnect", NetRegistry::instance().names());
    if (coherence && *coherence == "list") {
        // Richer than the generic lister: a backend's traits decide
        // which placements and knobs apply, so print them here instead
        // of making users cross-reference the source.
        std::printf("registered coherence models:\n");
        for (const auto &n : CoherenceRegistry::instance().names()) {
            const CoherenceTraits *t =
                CoherenceRegistry::instance().traits(n);
            std::printf("  %-10s %s", n.c_str(),
                        t->directory ? "directory over fabric"
                                     : "snooping bus");
            if (t->updateProtocol)
                std::printf(", update-based");
            if (t->adaptiveUpdate)
                std::printf(" + adaptive (--hybrid-threshold)");
            if (t->directory)
                std::printf(", --dir-* knobs");
            std::printf("\n             placement: memory%s; "
                        "snarfing: %s\n",
                        t->directory ? "" : "|io|cache",
                        t->directory ? "no" : "yes");
        }
        std::exit(0);
    }

    // A mistyped machine-wide flag must fail loudly here: benches that
    // sweep fixed configurations (fig6/fig7) treat unbuildable combos
    // as "n/a" cells, which would otherwise swallow the typo into an
    // all-n/a table with a green exit code.
    if (net && !NetRegistry::instance().known(*net)) {
        cni_fatal("unknown interconnect '%s' (registered models: %s)",
                  net->c_str(),
                  NetRegistry::instance().namesCsv().c_str());
    }
    if (coherence && !CoherenceRegistry::instance().known(*coherence)) {
        cni_fatal(
            "unknown coherence backend '%s' (registered backends: %s)",
            coherence->c_str(),
            CoherenceRegistry::instance().namesCsv().c_str());
    }

    return o;
}

} // namespace cni::cli

#endif // CNI_SIM_CLI_HPP
