/**
 * @file
 * The NI family's table: the five designs of Table 1, each under its
 * taxonomy label ("NI2w", "CNI16Qm", ...) with a NiTraits record
 * describing the properties the machine builder needs for up-front
 * validation. The machine constructor selects devices purely by name.
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
    /** The table (ni/registry.cpp holds its rows). */
    static const NiRegistry &instance();

  private:
    using Registry::Registry;
};

} // namespace cni

#endif // CNI_NI_REGISTRY_HPP
