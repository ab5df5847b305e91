#include "coh/dragon.hpp"

namespace cni
{

DragonFabric::DragonFabric(EventQueue &eq, NodeId node, int numNodes,
                           Interconnect &net, const std::string &name,
                           const DirParams &dir)
    : DirectoryFabric(eq, node, numNodes, net, name, dir)
{
    touchUpdateCounters();
}

void
detail::registerDragonDomain(CoherenceRegistry &r)
{
    CoherenceTraits t;
    t.snooping = false;
    t.maxBusAgents = 0;
    t.overFabric = true;
    t.supportsIoPlacement = false;
    t.supportsCachePlacement = false;
    t.supportsSnarfing = false;
    t.directoryGeometry = true; // same sparse/hop knobs as directory
    t.reportSection = true;
    t.updateProtocol = true;
    r.register_("dragon", t, [](const CohBuildContext &c) {
        return std::make_unique<DragonFabric>(c.eq, c.node, c.numNodes,
                                              c.net, c.name, c.dir);
    });
}

} // namespace cni
