/**
 * @file
 * Endpoint: the typed user-facing messaging facade.
 *
 * One Endpoint wraps one (node, context) messaging layer and replaces
 * raw handler-id plumbing with three idioms:
 *
 *  - push:  onMessage(port, handler) — an active-message handler;
 *  - pull:  recv(port) / recvValue<T>(port) — await the next message on
 *           a subscribed port, mailbox-style;
 *  - rpc:   serve(port, fn) on the callee, rpc(dst, port, ...) on the
 *           caller — a correlated request/reply round trip.
 *
 * Ports are plain integers scoped per (node, context); values below
 * kReservedPortBase are free for applications.
 *
 * Pull-mode caveat: a port must be subscribed (subscribe(), or a first
 * recv()) before a peer's message for it can arrive — unknown ports are
 * a protocol error in the layer below.
 */

#ifndef CNI_MSG_ENDPOINT_HPP
#define CNI_MSG_ENDPOINT_HPP

#include <cstring>
#include <deque>
#include <set>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "msg/msg_layer.hpp"

namespace cni
{

/** Application-level message port (maps onto active-message handler ids). */
using Port = std::uint32_t;

class Endpoint
{
  public:
    /** Ports at/above this value are reserved for the facade itself. */
    static constexpr Port kReservedPortBase = 0xffff0000u;

    /**
     * Tags with this bit set are reserved for the facade: rpc() marks
     * its requests with it so serve() can tell a correlated request
     * from a plain one-way send() carrying an application tag.
     */
    static constexpr std::uint64_t kRpcTagFlag = 1ULL << 63;

    explicit Endpoint(MsgLayer &msg) : msg_(msg) {}

    NodeId nodeId() const { return msg_.nodeId(); }
    int context() const { return msg_.context(); }

    /** The raw layer underneath (escape hatch; prefer the facade). */
    MsgLayer &layer() { return msg_; }

    // Push: active-message handlers -----------------------------------------

    /** Register the coroutine invoked for each message on `port`. */
    void onMessage(Port port, MsgLayer::Handler h);

    // Send ------------------------------------------------------------------

    /** Send `bytes` raw bytes to (dst, port). */
    CoTask<void> send(NodeId dst, Port port, const void *data,
                      std::size_t bytes, std::uint64_t tag = 0);

    /** Send a pure control message (no payload). */
    CoTask<void>
    send(NodeId dst, Port port, std::uint64_t tag = 0)
    {
        return send(dst, port, nullptr, 0, tag);
    }

    /** Send one trivially-copyable value. */
    template <typename T>
    CoTask<void>
    sendValue(NodeId dst, Port port, const T &v, std::uint64_t tag = 0)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "sendValue needs a trivially copyable payload");
        return send(dst, port, &v, sizeof(T), tag);
    }

    // Pull: mailbox receive -------------------------------------------------

    /**
     * Open `port` for pull-mode receive. Must happen before a peer's
     * first message on the port arrives; recv() subscribes implicitly.
     */
    void subscribe(Port port);

    /** Await the next message on `port` (polling the NI meanwhile). */
    CoTask<UserMsg> recv(Port port);

    /** Await one trivially-copyable value on `port`. */
    template <typename T>
    CoTask<T>
    recvValue(Port port)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "recvValue needs a trivially copyable payload");
        UserMsg m = co_await recv(port);
        cni_assert(m.payload.size() == sizeof(T));
        T v;
        std::memcpy(&v, m.payload.data(), sizeof(T));
        co_return v;
    }

    // RPC -------------------------------------------------------------------

    /** The callee side: compute a reply payload for each request. */
    using RpcHandler =
        std::function<CoTask<std::vector<std::uint8_t>>(const UserMsg &)>;

    /**
     * Serve requests arriving on `port`. rpc() requests get the handler's
     * result sent back; a plain send() to the port still invokes the
     * handler but is one-way — its result is dropped.
     */
    void serve(Port port, RpcHandler fn);

    /**
     * One correlated request/reply round trip to (dst, port). Multiple
     * RPCs may be outstanding; replies match by tag. The reply travels
     * on a reserved port of the *caller's context*, so caller and callee
     * contexts must be symmetric (as everywhere in the layer below).
     */
    CoTask<UserMsg> rpc(NodeId dst, Port port, const void *data,
                        std::size_t bytes);

    /** RPC with a trivially-copyable request value. */
    template <typename T>
    CoTask<UserMsg>
    rpcValue(NodeId dst, Port port, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "rpcValue needs a trivially copyable payload");
        return rpc(dst, port, &v, sizeof(T));
    }

    // Progress --------------------------------------------------------------

    /** Poll the NI, dispatching up to `maxDispatch` handlers. */
    CoTask<int> poll(int maxDispatch = 8) { return msg_.poll(maxDispatch); }

    /**
     * Poll (dispatching handlers) until `pred()` holds. Only this
     * node's handlers or program may make `pred` true: a quiet spin may
     * be fast-forwarded, and a predicate another node flips panics (see
     * MsgLayer::pollUntil). Wait on other nodes with pollEachUntil.
     */
    CoTask<void>
    pollUntil(std::function<bool()> pred)
    {
        return msg_.pollUntil(std::move(pred));
    }

    /** Poll until `pred()` holds, running every poll; any predicate. */
    CoTask<void>
    pollEachUntil(std::function<bool()> pred)
    {
        return msg_.pollEachUntil(std::move(pred));
    }

  private:
    static constexpr Port kRpcReplyPort = kReservedPortBase;

    void bindPush(Port port);
    void ensureRpcReplyPlumbing();

    MsgLayer &msg_;
    std::set<Port> pushPorts_; //!< ports bound to onMessage/serve
    std::unordered_map<Port, std::deque<UserMsg>> mailboxes_;
    std::unordered_map<std::uint64_t, UserMsg> rpcReplies_;
    std::uint64_t rpcSeq_ = 0;
    bool rpcPlumbed_ = false;
};

} // namespace cni

#endif // CNI_MSG_ENDPOINT_HPP
