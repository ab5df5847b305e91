#include "coh/hybrid.hpp"

namespace cni
{

HybridFabric::HybridFabric(EventQueue &eq, NodeId node, int numNodes,
                           Interconnect &net, const std::string &name,
                           const DirParams &dir)
    : DirectoryFabric(eq, node, numNodes, net, name, dir)
{
    touchUpdateCounters();
}

void
detail::registerHybridDomain(CoherenceRegistry &r)
{
    CoherenceTraits t;
    t.snooping = false;
    t.maxBusAgents = 0;
    t.overFabric = true;
    t.supportsIoPlacement = false;
    t.supportsCachePlacement = false;
    t.supportsSnarfing = false;
    t.directoryGeometry = true;
    t.reportSection = true;
    t.updateProtocol = true;
    t.adaptiveUpdate = true; // consumes DirParams::updThreshold
    r.register_("hybrid", t, [](const CohBuildContext &c) {
        return std::make_unique<HybridFabric>(c.eq, c.node, c.numNodes,
                                              c.net, c.name, c.dir);
    });
}

} // namespace cni
