#include "ni/net_iface.hpp"

#include <exception>

#include "sim/logging.hpp"

namespace cni
{

NetIface::NetIface(EventQueue &eq, NodeId node, CoherenceDomain &coh,
                   Interconnect &net, NodeMemory &mem, std::string name)
    : eq_(eq), node_(node), coh_(coh), net_(net), mem_(mem),
      name_(std::move(name)), stats_(name_),
      cWindowStalls_(stats_, "window_stalls"), cInjected_(stats_, "injected"),
      kickCh_(eq), injectCh_(eq)
{
    net_.attach(node, this);
}

TxnAwaiter
NetIface::devTxn(TxnKind kind, Addr a)
{
    BusTxn txn;
    txn.kind = kind;
    txn.addr = a;
    txn.initiator = Initiator::Device;
    // The device's requester id is assigned at attach time by the
    // domain; a bridging backend rewrites ids when crossing buses.
    txn.requesterId = busId_;
    return TxnAwaiter(coh_, txn);
}

void
NetIface::queueForInjection(NetMsg msg)
{
    injectQ_.push_back(std::move(msg));
    injectCh_.notifyAll();
}

// Both service loops catch everything: nobody co_awaits an owned
// engine frame, so an exception stored in its promise would otherwise
// vanish and the simulation would die later with a misleading
// "workload deadlocked" instead of the real crash site.

CoTask<void>
NetIface::engineLoop()
{
    try {
        for (;;) {
            bool did = co_await engineStep();
            if (!did)
                co_await kickCh_.wait();
        }
    } catch (const std::exception &e) {
        cni_panic("%s: engine coroutine threw: %s", name_.c_str(),
                  e.what());
    } catch (...) {
        cni_panic("%s: engine coroutine threw", name_.c_str());
    }
}

CoTask<void>
NetIface::injectLoop()
{
    try {
        for (;;) {
            if (injectQ_.empty()) {
                co_await injectCh_.wait();
                continue;
            }
            const NodeId dst = injectQ_.front().dst;
            if (!net_.canInject(node_, dst)) {
                cWindowStalls_.incr();
                co_await net_.windowChannel(node_).wait();
                continue;
            }
            NetMsg msg = std::move(injectQ_.front());
            injectQ_.pop_front();
            co_await busyFor(kNiInjectCycles);
            cInjected_.incr();
            net_.inject(std::move(msg));
            // Backlog space freed: the engine may resume draining its
            // send queue (see kInjectBacklogLimit).
            kick();
        }
    } catch (const std::exception &e) {
        cni_panic("%s: inject coroutine threw: %s", name_.c_str(),
                  e.what());
    } catch (...) {
        cni_panic("%s: inject coroutine threw", name_.c_str());
    }
}

} // namespace cni
