/**
 * @file
 * The machine-parameter table (core/machine_params.hpp) is the one
 * vocabulary behind the bench CLI, SweepSpec parameters and cnid jobs.
 * For every row: `--name value` through cli::parse and `name=value`
 * through sweep::applyMachineParams describe the same machine, a
 * malformed value fails on both paths with a message naming the
 * parameter, and --help lists the row. Also pins the hostile values
 * that used to wrap through strtoull to 2^64-1 or be truncated by atoi.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/machine_params.hpp"
#include "sim/cli.hpp"
#include "sweep/httpd.hpp"
#include "sweep/runner.hpp"
#include "sweep/server.hpp"

namespace cni
{
namespace
{

struct Sample
{
    const char *good; //!< differs from the builder default
    const char *bad;  //!< fails the row's syntax check
};

// A row missing here fails EveryRowHasSamples: new rows cannot skip
// the equivalence checks below.
const std::map<std::string, Sample> kSamples = {
    {"nodes", {"8", "2x"}},
    {"ni", {"CNI4", ""}},
    {"contexts", {"2", "two"}},
    {"placement", {"io", "bus"}},
    {"snarf", {"true", "maybe"}},
    {"net", {"mesh", ""}},
    {"coherence", {"directory", ""}},
    {"dir-entries", {"64", "64k"}},
    {"dir-assoc", {"8", "-"}},
    {"dir-hops", {"3", "3.0"}},
    {"hybrid-threshold", {"2", "0x2"}},
    {"net-latency", {"7", "-1"}},
    {"link-bw", {"8", "-1"}},
    {"window", {"16", "4x"}},
    {"net-retry", {"9", "-1"}},
    {"mesh-dims", {"4x2", "4by2"}},
    {"threads", {"2", "two"}},
};

/** The label plus every field a table row can set. */
auto
fields(const MachineSpec &s)
{
    return std::make_tuple(
        s.label(), s.numNodes, s.defaults.ni, s.defaults.contexts,
        int(s.placement), s.snarfing, s.net.topology, s.coherence,
        s.dir.entries, s.dir.assoc, s.dir.hops, s.dir.updThreshold,
        s.net.latency, s.net.linkBw, s.net.window, s.net.retryInterval,
        s.net.meshX, s.net.meshY, s.threads);
}

cli::Options
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "test_params");
    args.insert(args.end(), {"--json", "none"});
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return cli::parse(int(argv.size()), argv.data());
}

std::vector<std::string>
flagArgs(const MachineParam &p, const std::string &value)
{
    const std::string flag = std::string("--") + p.name;
    if (!p.arg)
        return {flag};
    return {flag, value};
}

TEST(MachineParams, EveryRowHasSamples)
{
    for (const MachineParam &p : machineParams())
        EXPECT_EQ(kSamples.count(p.name), 1u) << p.name;
    EXPECT_EQ(machineParams().size(), kSamples.size());
}

TEST(MachineParams, FlagAndSweepParameterBuildTheSameMachine)
{
    const auto defaults = fields(MachineBuilder().spec());
    for (const MachineParam &p : machineParams()) {
        const Sample &s = kSamples.at(p.name);
        MachineBuilder viaCli;
        parseArgs(flagArgs(p, s.good)).apply(viaCli);

        MachineBuilder viaSweep;
        sweep::ParamList rest;
        std::string why;
        ASSERT_TRUE(sweep::applyMachineParams({{p.name, s.good}},
                                              &viaSweep, &rest, &why))
            << why;
        EXPECT_TRUE(rest.empty()) << p.name;
        EXPECT_EQ(fields(viaCli.spec()), fields(viaSweep.spec())) << p.name;
        EXPECT_NE(fields(viaSweep.spec()), defaults)
            << p.name << " sample sets nothing";
    }
}

TEST(MachineParamsDeathTest, MalformedValueIsRejectedNamingTheParameter)
{
    for (const MachineParam &p : machineParams()) {
        const Sample &s = kSamples.at(p.name);
        const std::string named = std::string("parameter '") + p.name + "'";

        MachineBuilder b;
        sweep::ParamList rest;
        std::string why;
        EXPECT_FALSE(
            sweep::applyMachineParams({{p.name, s.bad}}, &b, &rest, &why))
            << p.name;
        EXPECT_NE(why.find(named), std::string::npos) << why;

        // A flag that takes no value has no malformed spelling.
        if (p.arg) {
            EXPECT_EXIT(parseArgs(flagArgs(p, s.bad)),
                        ::testing::ExitedWithCode(1), named);
        }
    }
}

TEST(MachineParams, HelpListsExactlyTheRowsAndTheRunFlags)
{
    std::vector<std::string> want;
    for (const MachineParam &p : machineParams())
        want.push_back(std::string("--") + p.name);
    want.insert(want.end(), {"--seed", "--json", "--help"});

    std::vector<std::string> listed;
    std::istringstream help(cli::usage("prog"));
    for (std::string line; std::getline(help, line);) {
        if (line.rfind("  --", 0) == 0)
            listed.push_back(line.substr(2, line.find(' ', 2) - 2));
    }
    EXPECT_EQ(listed, want);
}

TEST(MachineParamsDeathTest, HelpExitsZero)
{
    EXPECT_EXIT(parseArgs({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(MachineParamsDeathTest, HostileNumericFlagsFailNamingTheParameter)
{
    const std::vector<std::pair<std::vector<std::string>, const char *>>
        cases = {
            {{"--net-latency", "-1"}, "net-latency"},
            {{"--net-retry", "-1"}, "net-retry"},
            {{"--link-bw", "-1", "--net", "mesh"}, "link-bw"},
            {{"--nodes", "2x"}, "nodes"},
            {{"--window", "4x"}, "window"},
            {{"--window", "abc"}, "window"},
            {{"--seed", "abc"}, "--seed"},
        };
    for (const auto &[args, name] : cases)
        EXPECT_EXIT(parseArgs(args), ::testing::ExitedWithCode(1), name);
}

TEST(MachineParams, DaemonAnswers400ForTheSameValues)
{
    sweep::JobServer server({.workers = 1});
    for (const char *param : {"net-latency", "net-retry", "link-bw"}) {
        sweep::HttpRequest req;
        req.method = "POST";
        req.path = "/jobs";
        req.body = std::string(R"({"workload": "roundtrip", "base": )") +
                   R"({"nodes": 2, ")" + param + R"(": "-1"}})";
        const sweep::HttpResponse r = sweep::routeRequest(server, req);
        EXPECT_EQ(r.status, 400) << param;
        EXPECT_NE(r.body.find(param), std::string::npos) << r.body;
    }
}

} // namespace
} // namespace cni
