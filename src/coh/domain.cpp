#include "coh/domain.hpp"

#include "bus/address_map.hpp"
#include "bus/fabric.hpp"
#include "coh/directory.hpp"
#include "mc/encode.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"

namespace cni
{

const char *
toString(NiPlacement p)
{
    switch (p) {
      case NiPlacement::CacheBus:
        return "cache-bus";
      case NiPlacement::MemoryBus:
        return "memory-bus";
      case NiPlacement::IoBus:
        return "io-bus";
    }
    return "?";
}

void
CoherenceDomain::reportCoherence(JsonWriter &w) const
{
    (void)w;
}

bool
CoherenceDomain::isNiAddr(Addr a)
{
    return isDeviceRegister(a) || isDeviceMemory(a);
}

// --- model-checking seam defaults (stateless domain) ------------------------

std::shared_ptr<const void>
CoherenceDomain::mcSnapshot() const
{
    return nullptr;
}

void
CoherenceDomain::mcRestore(const std::shared_ptr<const void> &snap)
{
    cni_assert(snap == nullptr);
}

void
CoherenceDomain::mcEncode(McEncoder &enc) const
{
    (void)enc;
}

void
CoherenceDomain::mcEncodeWire(McEncoder &enc, const std::uint8_t *blob,
                              std::size_t len) const
{
    // No protocol-specific structure known: fold the raw bytes.
    for (std::size_t i = 0; i < len; ++i)
        enc.u8(blob[i]);
}

bool
CoherenceDomain::mcQuiescent(std::string *why) const
{
    (void)why;
    return true;
}

std::size_t
CoherenceDomain::mcParkDepth() const
{
    return 0;
}

// --- the table ---------------------------------------------------------------

namespace
{

/**
 * A directory row: the three directory backends share one fabric and
 * differ only in whether writes push updates to sharers.
 */
template <CoherenceTraits traits>
CoherenceRegistry::Row
directoryRow(const char *name)
{
    return {name, traits,
            [](const CohBuildContext &c)
                -> std::unique_ptr<CoherenceDomain> {
                return std::make_unique<DirectoryFabric>(
                    c.eq, c.node, c.numNodes, c.net, c.name, c.dir,
                    traits.updateProtocol);
            }};
}

} // namespace

const CoherenceRegistry &
CoherenceRegistry::instance()
{
    static const CoherenceRegistry reg(
        "coherence backend", "registered backends",
        {
            {"snoop", CoherenceTraits{},
             [](const CohBuildContext &c)
                 -> std::unique_ptr<CoherenceDomain> {
                 return std::make_unique<NodeFabric>(c.eq, c.name,
                                                     c.placement);
             }},
            directoryRow<CoherenceTraits{.directory = true}>("directory"),
            directoryRow<CoherenceTraits{.directory = true,
                                         .updateProtocol = true}>("dragon"),
            directoryRow<CoherenceTraits{.directory = true,
                                         .updateProtocol = true,
                                         .adaptiveUpdate = true}>("hybrid"),
        });
    return reg;
}

} // namespace cni
