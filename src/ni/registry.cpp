#include "ni/registry.hpp"

#include "ni/cni4.hpp"
#include "ni/cniq.hpp"
#include "ni/ni2w.hpp"

namespace cni
{

namespace
{

/** NI2w and CNI4: one device, one context, no configuration. */
template <typename Device>
std::unique_ptr<NetIface>
makeDevice(const NiBuildContext &c)
{
    return std::make_unique<Device>(c.eq, c.node, c.coh, c.net, c.mem,
                                    c.name);
}

/** A CNIiQ design: `preset` unless the spec overrides the device. */
template <CniqConfig (*preset)()>
NiRegistry::Row
cniqRow(const char *name)
{
    return {name,
            NiTraits{.coherent = true,
                     .queueBased = true,
                     .memoryHomedRecv = preset().recvHomeMemory},
            [](const NiBuildContext &c) -> std::unique_ptr<NetIface> {
                CniqConfig qc = c.cniqOverride ? *c.cniqOverride : preset();
                qc.numContexts = c.numContexts;
                return std::make_unique<Cniq>(c.eq, c.node, c.coh, c.net,
                                              c.mem, c.name, qc);
            }};
}

} // namespace

const NiRegistry &
NiRegistry::instance()
{
    static const NiRegistry reg(
        "NI model", "registered models",
        {
            {"NI2w", NiTraits{.coherent = false}, makeDevice<Ni2w>},
            {"CNI4", NiTraits{.coherent = true}, makeDevice<Cni4>},
            cniqRow<CniqConfig::cni16q>("CNI16Q"),
            cniqRow<CniqConfig::cni512q>("CNI512Q"),
            cniqRow<CniqConfig::cni16qm>("CNI16Qm"),
        });
    return reg;
}

} // namespace cni
