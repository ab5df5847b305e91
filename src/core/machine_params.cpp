#include "core/machine_params.hpp"

#include <algorithm>
#include <type_traits>

namespace cni
{

namespace
{

using B = MachineBuilder;

/** A numeric setter: parse into the setter's own parameter type. */
template <class T, B &(B::*Set)(T)>
bool
asNumber(B &b, const std::string &v, const char **want)
{
    T n{};
    if (!parseNumber(v, &n)) {
        *want = std::is_signed_v<T> ? "an integer"
                                    : "a non-negative integer";
        return false;
    }
    (b.*Set)(n);
    return true;
}

template <B &(B::*Set)(bool)>
bool
asBool(B &b, const std::string &v, const char **want)
{
    if (v != "true" && v != "1" && v != "false" && v != "0") {
        *want = "true or false";
        return false;
    }
    (b.*Set)(v == "true" || v == "1");
    return true;
}

/** A registry name; which names exist is MachineSpec::valid()'s call. */
template <B &(B::*Set)(const std::string &)>
bool
asName(B &b, const std::string &v, const char **want)
{
    if (v.empty()) {
        *want = "a name";
        return false;
    }
    (b.*Set)(v);
    return true;
}

bool
asPlacement(B &b, const std::string &v, const char **want)
{
    if (v == "memory" || v == "memory-bus" || v == "mem") {
        b.placement(NiPlacement::MemoryBus);
    } else if (v == "io" || v == "io-bus") {
        b.placement(NiPlacement::IoBus);
    } else if (v == "cache" || v == "cache-bus") {
        b.placement(NiPlacement::CacheBus);
    } else {
        *want = "memory, io, or cache";
        return false;
    }
    return true;
}

bool
asMeshDims(B &b, const std::string &v, const char **want)
{
    const std::size_t x = v.find('x');
    int mx = 0, my = 0;
    if (x == std::string::npos ||
        !parseNumber(std::string_view(v).substr(0, x), &mx) ||
        !parseNumber(std::string_view(v).substr(x + 1), &my)) {
        *want = "XxY (e.g. 4x4)";
        return false;
    }
    b.meshDims(mx, my);
    return true;
}

// Flag order: --help lists the rows in it, and cli::Options keeps the
// given flags (so the sweep bases benches build from them) in it too.
constexpr MachineParam kParams[] = {
    {"nodes", "N", "machine size", ParamScope::Node,
     asNumber<int, &B::nodes>},
    {"ni", "MODEL", "NI model (NiRegistry name)", ParamScope::Node,
     asName<&B::ni>},
    {"contexts", "N", "user processes per node (CNIiQ family)",
     ParamScope::Node, asNumber<int, &B::contexts>},
    {"placement", "P", "NI placement: memory | io | cache",
     ParamScope::Node, asPlacement},
    {"snarf", nullptr, "processor caches snarf NI writebacks (CNI16Qm)",
     ParamScope::Node, asBool<&B::snarfing>},
    {"net", "MODEL", "interconnect: ideal | mesh | torus | xbar",
     ParamScope::Fabric, asName<&B::net>},
    {"coherence", "B", "coherence: snoop | directory | dragon | hybrid",
     ParamScope::Coherence, asName<&B::coherence>},
    {"dir-entries", "N", "sparse directory entries per home (0 = full map)",
     ParamScope::Coherence, asNumber<int, &B::dirEntries>},
    {"dir-assoc", "N", "sparse directory set associativity (default 4)",
     ParamScope::Coherence, asNumber<int, &B::dirAssoc>},
    {"dir-hops", "3|4", "remote-miss path: 4 home-centric, 3 owner forwards",
     ParamScope::Coherence, asNumber<int, &B::dirHops>},
    {"hybrid-threshold", "N",
     "hybrid: self-invalidate after N unread updates",
     ParamScope::Coherence, asNumber<int, &B::hybridThreshold>},
    {"net-latency", "N", "fabric latency in cycles (ideal/xbar transit)",
     ParamScope::Fabric, asNumber<Tick, &B::netLatency>},
    {"link-bw", "N", "link/port bandwidth in bytes per cycle (mesh/xbar)",
     ParamScope::Fabric, asNumber<std::size_t, &B::linkBandwidth>},
    {"window", "N", "sliding-window depth per destination",
     ParamScope::Fabric, asNumber<int, &B::window>},
    {"net-retry", "N", "congested-receiver retry interval in cycles",
     ParamScope::Fabric, asNumber<Tick, &B::netRetry>},
    {"mesh-dims", "XxY", "mesh/torus grid (default: near-square)",
     ParamScope::Fabric, asMeshDims},
    {"threads", "N", "sharded kernel on N host threads (0 = serial)",
     ParamScope::Fabric, asNumber<int, &B::threads>},
};

} // namespace

bool
MachineParam::apply(MachineBuilder &b, const std::string &value,
                    std::string *why) const
{
    const char *want = "";
    if (set(b, value, &want))
        return true;
    if (why) {
        *why = std::string("parameter '") + name + "': got '" + value +
               "', want " + want;
    }
    return false;
}

std::string
MachineParam::usage() const
{
    std::string flag = std::string("  --") + name;
    if (arg)
        flag += std::string(" ") + arg;
    flag.resize(std::max<std::size_t>(flag.size() + 2, 26), ' ');
    return flag + help + "\n";
}

std::span<const MachineParam>
machineParams()
{
    return kParams;
}

const MachineParam *
findMachineParam(std::string_view name)
{
    for (const MachineParam &p : kParams) {
        if (name == p.name)
            return &p;
    }
    return nullptr;
}

} // namespace cni
