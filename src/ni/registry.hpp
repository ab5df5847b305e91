/**
 * @file
 * Name-keyed factory registry for network-interface devices.
 *
 * Every NI design registers itself under its taxonomy label ("NI2w",
 * "CNI16Qm", ...) together with a NiTraits record describing the
 * properties the machine builder needs for up-front validation. The
 * machine constructor selects devices purely by name, so new designs —
 * including out-of-tree ones — plug in without touching core code:
 *
 *   namespace { const NiRegistrar reg("MyNI", NiTraits{...},
 *       [](const NiBuildContext &c) { return std::make_unique<MyNi>(...); });
 *   }
 *
 * The five paper designs self-register from their own translation units
 * in src/ni/ (pulled in lazily by NiRegistry::instance(), which keeps
 * static-library builds from dropping the registration objects).
 */

#ifndef CNI_NI_REGISTRY_HPP
#define CNI_NI_REGISTRY_HPP

#include <string>

#include "ni/net_iface.hpp"
#include "sim/registry.hpp"

namespace cni
{

struct CniqConfig;

/**
 * Capabilities and constraints of one NI design, consulted by the
 * machine builder when validating a description (Section 5 of the
 * paper defines which combinations are implementable).
 */
struct NiTraits
{
    bool coherent = true; //!< caches processor memory (not placeable on
                          //!< a cache bus, which cannot snoop for it)
    bool queueBased = false;      //!< CNIiQ family: per-context queues,
                                  //!< supports multiprogramming
    bool memoryHomedRecv = false; //!< receive queue homed in main memory
                                  //!< (CNI16Qm): snarfing target, cannot
                                  //!< live across a coherent I/O bus
};

/** Everything a factory needs to construct one NI device instance. */
struct NiBuildContext
{
    EventQueue &eq;
    NodeId node;
    CoherenceDomain &coh;
    Interconnect &net;
    NodeMemory &mem;
    std::string name;  //!< instance name, e.g. "node3.CNI16Qm"
    int numContexts;   //!< user processes sharing the device
    const CniqConfig *cniqOverride; //!< ablation override, or nullptr
};

class NiRegistry
    : public Registry<NetIface, NiTraits, const NiBuildContext &>
{
  public:
    NiRegistry() : Registry("NI model", "registered models") {}

    /** The process-wide registry (builtin models are ensured here). */
    static NiRegistry &instance();
};

/** Registers a model at static-initialization time (out-of-tree NIs). */
using NiRegistrar = Registrar<NiRegistry>;

namespace detail
{
// Self-registration hooks of the builtin models, defined next to each
// device in src/ni/*.cpp. Called once from NiRegistry::instance() so a
// static-library link never drops them. They take the registry by
// reference so registration cannot re-enter instance() mid-init.
void registerNi2wModel(NiRegistry &r);
void registerCni4Model(NiRegistry &r);
void registerCniqModels(NiRegistry &r);
} // namespace detail

} // namespace cni

#endif // CNI_NI_REGISTRY_HPP
