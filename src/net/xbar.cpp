#include "net/xbar.hpp"

#include <algorithm>

#include "sim/json.hpp"
#include "sim/logging.hpp"

namespace cni
{

CrossbarNet::CrossbarNet(EventQueue &eq, int numNodes, NetParams params)
    : Interconnect(eq, numNodes, std::move(params)), egress_(numNodes),
      ingress_(numNodes), cEgressWaitCycles_(stats_, "egress_wait_cycles"),
      cIngressWaitCycles_(stats_, "ingress_wait_cycles"),
      cPortBusyCycles_(stats_, "port_busy_cycles")
{
    cni_assert(params_.linkBw >= 1);
}

Tick
CrossbarNet::routeDelay(const NetMsg &msg, Tick now)
{
    const Tick ser = serializationCycles(msg);

    // Serialize out of the source's injection port...
    const Tick outStart = egress_[msg.src].reserve(now, ser);
    if (outStart > now)
        cEgressWaitCycles_.incr(outStart - now);
    cPortBusyCycles_.incr(ser);

    // ...cross the (non-blocking) switch...
    const Tick transit = outStart + ser + params_.latency;

    // ...and serialize into the destination's delivery port.
    const Tick inStart = ingress_[msg.dst].reserve(transit, ser);
    if (inStart > transit)
        cIngressWaitCycles_.incr(inStart - transit);
    cPortBusyCycles_.incr(ser);

    return inStart + ser - now;
}

void
CrossbarNet::reportTopology(JsonWriter &w) const
{
    barrier_.assertHeld(); // reports run serially, between windows
    auto writePorts = [&](const char *key,
                          const std::vector<PortState> &ports) {
        w.key(key).beginArray();
        for (NodeId n = 0; n < numNodes(); ++n) {
            const PortState &p = ports[n];
            if (p.uses == 0)
                continue;
            w.beginObject();
            w.key("node").value(n);
            w.key("messages").value(p.uses);
            w.key("busy_cycles").value(std::uint64_t(p.busyCycles));
            w.key("wait_cycles").value(std::uint64_t(p.waitCycles));
            w.endObject();
        }
        w.endArray();
    };
    writePorts("egress_ports", egress_);
    writePorts("ingress_ports", ingress_);
}

} // namespace cni
