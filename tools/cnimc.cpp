/**
 * @file
 * cnimc — the coherence-protocol model checker's command-line front end.
 *
 * Exhaustively explores every reachable protocol state of a tiny machine
 * built from the *production* coherence backends (see src/mc/checker.hpp)
 * and reports the visited-state count and any invariant violation, with
 * a minimized, replayable counterexample trace.
 *
 *   cnimc --coherence directory --dir-hops 3 --nodes 2 --blocks 1
 *   cnimc --coherence directory --dir-entries 2 --dir-assoc 2 --json -
 *   cnimc --coherence directory --dir-hops 3 --seed-bug   # must fail
 *
 * Exit codes: 0 clean, 1 invariant violation, 2 usage/config error,
 * 3 exploration truncated (maxStates hit — not an exhaustive proof).
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/machine_params.hpp"
#include "mc/checker.hpp"

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: cnimc [options]\n";
    // The coherence rows of the machine-parameter table; the backend
    // defaults to directory here.
    for (const cni::MachineParam &p : cni::machineParams()) {
        if (p.scope == cni::ParamScope::Coherence)
            os << p.usage();
    }
    os << "  --nodes <n>             machine size, 1..8 (default 2)\n"
          "  --blocks <n>            coherent blocks in play, 1..16 "
          "(default 1)\n"
          "  --max-states <n>        visited-state cap\n"
          "  --max-depth <n>         DFS path-length cap\n"
          "  --seed-bug              arm the FwdDone-hold fault "
          "(self-check)\n"
          "  --json <file|->         machine-readable summary\n";
}

} // namespace

int
main(int argc, char **argv)
{
    cni::McConfig cfg;
    std::string jsonOut;
    // The machine flags (the table's coherence rows, and --nodes) land
    // on the builder of the rig the checker runs (a mesh N x 1), so
    // MachineSpec::valid() judges them.
    cni::MachineBuilder machine =
        cni::Machine::describe().nodes(cfg.nodes).coherence(cfg.backend);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *what) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "cnimc: " << what << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        const cni::MachineParam *p =
            arg.rfind("--", 0) == 0 ? cni::findMachineParam(arg.substr(2))
                                    : nullptr;
        if (p && (p->scope == cni::ParamScope::Coherence ||
                  arg == "--nodes")) {
            std::string why;
            const std::string v = p->arg ? value(arg.c_str()) : "true";
            if (!p->apply(machine, v, &why)) {
                std::cerr << "cnimc: " << why << "\n";
                return 2;
            }
        } else if (arg == "--blocks") {
            cfg.blocks = std::atoi(value("--blocks").c_str());
        } else if (arg == "--max-states") {
            cfg.maxStates =
                std::strtoull(value("--max-states").c_str(), nullptr, 10);
        } else if (arg == "--max-depth") {
            cfg.maxDepth =
                std::strtoull(value("--max-depth").c_str(), nullptr, 10);
        } else if (arg == "--seed-bug") {
            cfg.seedBug = true;
        } else if (arg == "--json") {
            jsonOut = value("--json");
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "cnimc: unknown option " << arg << "\n";
            usage(std::cerr);
            return 2;
        }
    }

    cfg.nodes = machine.spec().numNodes;
    if (cfg.nodes < 1 || cfg.nodes > 8 || cfg.blocks < 1 ||
        cfg.blocks > 16) {
        std::cerr << "cnimc: --nodes must be 1..8, --blocks 1..16 "
                     "(exhaustive exploration only scales to tiny "
                     "machines)\n";
        return 2;
    }
    machine.net("mesh").meshDims(cfg.nodes, 1);
    std::string why;
    if (!machine.valid(&why)) {
        std::cerr << "cnimc: " << why << "\n";
        return 2;
    }
    cfg.backend = machine.spec().coherence;
    cfg.dir = machine.spec().dir;

    cni::McChecker checker(cfg);
    const cni::McResult res = checker.check();

    std::cout << "cnimc: " << cfg.backend;
    if (cfg.backend != "snoop") {
        std::cout << " (entries="
                  << (cfg.dir.entries == 0 ? std::string("full")
                                           : std::to_string(
                                                 cfg.dir.entries))
                  << ", hops=" << cfg.dir.hops;
        if (cfg.backend == "hybrid")
            std::cout << ", threshold=" << cfg.dir.updThreshold;
        std::cout << ")";
    }
    std::cout << " nodes=" << cfg.nodes << " blocks=" << cfg.blocks
              << (cfg.seedBug ? " [seed-bug]" : "") << "\n"
              << "  visited " << res.visited << " states, "
              << res.transitions << " transitions, " << res.terminals
              << " quiescent endpoints, " << res.symmetries
              << " symmetry image(s), max park depth " << res.maxParkSeen
              << (res.truncated ? " [TRUNCATED]" : "") << "\n";
    if (res.clean()) {
        std::cout << "  all invariants held\n";
    } else {
        std::cout << "  VIOLATION: " << res.violations.front() << "\n"
                  << "  minimal counterexample (" << res.trace.size()
                  << " steps):\n";
        for (const cni::McStep &s : res.trace) {
            if (s.deliver) {
                std::cout << "    deliver " << s.channel / cfg.nodes
                          << " -> " << s.channel % cfg.nodes << " ["
                          << s.label << "]\n";
            } else {
                std::cout << "    node " << s.node << " "
                          << (s.slot == 0 ? "cache" : "ni") << " block "
                          << s.block << " act " << s.act << "\n";
            }
        }
    }

    if (!jsonOut.empty()) {
        if (jsonOut == "-") {
            cni::McChecker::writeJson(cfg, res, std::cout);
        } else {
            std::ofstream f(jsonOut);
            if (!f) {
                std::cerr << "cnimc: cannot write " << jsonOut << "\n";
                return 2;
            }
            cni::McChecker::writeJson(cfg, res, f);
        }
    }

    if (!res.clean())
        return 1;
    return res.truncated ? 3 : 0;
}
