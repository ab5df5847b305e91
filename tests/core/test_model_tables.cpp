/**
 * @file
 * The model tables: each family's exact set of names, and the exact
 * text MachineSpec::valid gives when a description asks a coherence
 * backend for something it cannot do (a directory without a routed
 * fabric, off the memory bus, or with snarfing; directory or hybrid
 * knobs on a backend that ignores them).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/machine.hpp"
#include "ni/registry.hpp"

namespace cni
{
namespace
{

struct Rejection
{
    MachineBuilder spec;
    std::string why;
};

TEST(ModelTables, NamesAndBackendRejectionsAreExact)
{
    using Names = std::vector<std::string>;
    EXPECT_EQ(NiRegistry::instance().names(),
              (Names{"CNI16Q", "CNI16Qm", "CNI4", "CNI512Q", "NI2w"}));
    EXPECT_EQ(NetRegistry::instance().names(),
              (Names{"ideal", "mesh", "torus", "xbar"}));
    EXPECT_EQ(CoherenceRegistry::instance().names(),
              (Names{"directory", "dragon", "hybrid", "snoop"}));

    std::vector<Rejection> cases;
    for (const std::string b : {"directory", "dragon", "hybrid"}) {
        const MachineBuilder onMesh =
            Machine::describe().nodes(2).coherence(b).net("mesh");
        cases.push_back(
            {Machine::describe().nodes(2).coherence(b).net("ideal"),
             "coherence backend '" + b +
                 "' routes its protocol over the fabric and needs a "
                 "routed interconnect (mesh, torus, xbar), not 'ideal'"});
        cases.push_back({MachineBuilder(onMesh).placement(NiPlacement::IoBus),
                         "coherence backend '" + b +
                             "' has no bridged I/O bus: place the NI on "
                             "the memory bus"});
        cases.push_back(
            {MachineBuilder(onMesh).placement(NiPlacement::CacheBus),
             "coherence backend '" + b +
                 "' has no processor-local bus: place the NI on the "
                 "memory bus"});
        cases.push_back({MachineBuilder(onMesh).snarfing(),
                         "writeback snarfing rides snooping-bus "
                         "broadcasts: coherence backend '" +
                             b + "' cannot provide it"});
    }
    const std::string snoopGeometry =
        "dirEntries/dirAssoc/dirHops configure a directory's geometry: "
        "backend 'snoop' has no directory for them to shape";
    const MachineBuilder snoop = Machine::describe().nodes(2);
    cases.push_back({MachineBuilder(snoop).dirEntries(8), snoopGeometry});
    cases.push_back({MachineBuilder(snoop).dirAssoc(2), snoopGeometry});
    cases.push_back({MachineBuilder(snoop).dirHops(3), snoopGeometry});
    auto neverFlips = [](const std::string &b) {
        return "hybridThreshold tunes the adaptive update backend's flip "
               "point: backend '" +
               b +
               "' never flips, so the knob would be silently ignored "
               "(pick --coherence hybrid)";
    };
    cases.push_back(
        {MachineBuilder(snoop).hybridThreshold(2), neverFlips("snoop")});
    cases.push_back({Machine::describe()
                         .nodes(2)
                         .coherence("dragon")
                         .net("mesh")
                         .hybridThreshold(2),
                     neverFlips("dragon")});

    for (const Rejection &c : cases) {
        std::string why;
        EXPECT_FALSE(c.spec.valid(&why)) << c.spec.spec().label();
        EXPECT_EQ(why, c.why) << c.spec.spec().label();
    }
}

} // namespace
} // namespace cni
