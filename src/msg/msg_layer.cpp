#include "msg/msg_layer.hpp"

#include <cstring>

#include "sim/logging.hpp"

namespace cni
{

MsgLayer::MsgLayer(Proc &p, NetIface &ni, int ctx)
    : p_(p), ni_(ni), ctx_(ctx),
      stats_("node" + std::to_string(p.id()) + ".msg"),
      cUserSends_(stats_, "user_sends"),
      cUserSendBytes_(stats_, "user_send_bytes"),
      cSendBlocks_(stats_, "send_blocks"),
      cSoftwareBuffered_(stats_, "software_buffered"),
      cDispatches_(stats_, "dispatches")
{
}

void
MsgLayer::registerHandler(std::uint32_t id, Handler h)
{
    handlers_[id] = std::move(h);
}

Addr
MsgLayer::nextUserBuf(std::size_t bytes)
{
    // Rotate through the scratch region so buffered messages land at
    // realistic, distinct cache blocks.
    if (userBufCursor_ + bytes > kUserBufSize)
        userBufCursor_ = 0;
    const Addr a = kUserBufBase + userBufCursor_;
    userBufCursor_ = roundUpPow2(userBufCursor_ + bytes, kBlockBytes);
    return a;
}

CoTask<void>
MsgLayer::send(NodeId dst, std::uint32_t handler, const void *payload,
               std::size_t bytes, std::uint64_t userTag)
{
    cni_assert(dst != p_.id());
    const auto *bytesPtr = static_cast<const std::uint8_t *>(payload);
    const std::uint32_t seq = sendSeq_++;
    const std::uint16_t frags = static_cast<std::uint16_t>(
        bytes == 0 ? 1 : (bytes + kNetworkPayloadBytes - 1) /
                             kNetworkPayloadBytes);
    cUserSends_.incr();
    cUserSendBytes_.incr(bytes);

    std::size_t off = 0;
    for (std::uint16_t f = 0; f < frags; ++f) {
        const std::size_t chunk =
            std::min(bytes - off, kNetworkPayloadBytes);
        NetMsg m;
        m.src = p_.id();
        m.dst = dst;
        m.handler = handler;
        m.fragIndex = f;
        m.fragCount = frags;
        m.ctx = static_cast<std::uint8_t>(ctx_);
        m.seq = seq;
        m.userTag = userTag;
        if (chunk > 0) {
            m.payload.assign(bytesPtr + off, bytesPtr + off + chunk);
            off += chunk;
        }
        // Retry until the NI accepts the fragment, applying software
        // flow control while blocked.
        while (true) {
            bool ok = co_await ni_.trySend(p_, m, ctx_);
            if (ok)
                break;
            cSendBlocks_.incr();
            co_await drainWhileBlocked();
        }
    }
}

CoTask<void>
MsgLayer::drainWhileBlocked()
{
    if (!softwareDrains()) {
        // CNI16Qm: the device buffers receive overflow in main memory;
        // the processor just waits for send-queue space.
        co_await p_.delay(kBlockedSendBackoff);
        co_return;
    }
    // Extract every pending incoming message into user-space buffers so
    // the node cannot deadlock with its peers (Section 4.1). The
    // aggressiveness is deliberate and matches the paper: messages are
    // pulled out of the CNI cache even when there was still room for
    // them, which is the penalty CNI16Qm's automatic overflow avoids
    // (Section 5.2).
    bool any = false;
    for (;;) {
        NetMsg m;
        bool got = co_await ni_.tryRecv(p_, m, ctx_);
        if (!got)
            break;
        any = true;
        // Copy into a user buffer (cached stores).
        const Addr buf = nextUserBuf(m.wireBytes());
        co_await p_.touch(buf, m.wireBytes(), true);
        softBuf_.push_back(std::move(m));
        cSoftwareBuffered_.incr();
    }
    if (!any)
        co_await p_.delay(kBlockedSendBackoff);
}

CoTask<bool>
MsgLayer::nextNetMsg(NetMsg &out)
{
    if (!softBuf_.empty()) {
        out = std::move(softBuf_.front());
        softBuf_.pop_front();
        // Re-read the buffered copy (cached loads; usually hits).
        co_await p_.touch(nextUserBuf(out.wireBytes()), out.wireBytes(),
                          false);
        co_return true;
    }
    const bool got = co_await ni_.tryRecv(p_, out, ctx_);
    if (got) {
        // Copy the message from the network interface into a user-level
        // buffer (Section 5.1: the measurements include this messaging-
        // layer overhead; data ends in the receiving processor's cache).
        co_await p_.touch(nextUserBuf(out.wireBytes()), out.wireBytes(),
                          true);
    }
    co_return got;
}

CoTask<bool>
MsgLayer::assemble(const NetMsg &m, UserMsg &done)
{
    if (m.fragCount == 1) {
        done.src = m.src;
        done.handler = m.handler;
        done.userTag = m.userTag;
        done.payload = m.payload;
        co_return true;
    }
    const auto [it, fresh] =
        partial_.try_emplace(std::make_pair(m.src, m.seq));
    Partial &part = it->second;
    UserMsg &u = part.msg;
    if (fresh) {
        u.src = m.src;
        u.handler = m.handler;
        u.userTag = m.userTag;
        u.payload.resize(std::size_t(m.fragCount) * kNetworkPayloadBytes);
        part.fragsLeft = m.fragCount;
    }
    std::memcpy(u.payload.data() +
                    std::size_t(m.fragIndex) * kNetworkPayloadBytes,
                m.payload.data(), m.payload.size());
    if (m.fragIndex == m.fragCount - 1) {
        // Last fragment fixes the exact length.
        u.payload.resize(std::size_t(m.fragIndex) * kNetworkPayloadBytes +
                         m.payload.size());
    }
    if (--part.fragsLeft == 0) {
        done = std::move(u);
        partial_.erase(it);
        co_return true;
    }
    co_return false;
}

CoTask<int>
MsgLayer::poll(int maxDispatch)
{
    int dispatched = 0;
    while (dispatched < maxDispatch) {
        NetMsg m;
        bool got = co_await nextNetMsg(m);
        if (!got)
            break;
        UserMsg u;
        bool complete = co_await assemble(m, u);
        if (!complete)
            continue;
        auto it = handlers_.find(u.handler);
        if (it == handlers_.end())
            cni_panic("no handler registered for id %u", u.handler);
        co_await p_.delay(kDispatchCycles);
        cDispatches_.incr();
        co_await it->second(u);
        ++dispatched;
    }
    co_return dispatched;
}

CoTask<void>
MsgLayer::pollEachUntil(std::function<bool()> pred)
{
    while (!pred()) {
        const int n = co_await poll();
        if (n == 0 && !pred())
            co_await p_.delay(kIdlePollCycles); // idle poll loop overhead
    }
}

CoTask<void>
MsgLayer::pollUntil(std::function<bool()> pred)
{
    if (!horizon_) {
        co_await pollEachUntil(std::move(pred));
        co_return;
    }
    while (!pred()) {
        const int n = co_await poll();
        if (n > 0 || pred())
            continue;
        // The empty poll decides for the polls after it, and a skip
        // decides again where it lands: there the next poll would start.
        Tick skip = skipQuietPolls(p_.eq().now() + kIdlePollCycles);
        co_await p_.delay(kIdlePollCycles + skip);
        while (skip > 0) {
            if (pred()) {
                cni_panic("node %d: a pollUntil predicate turned true "
                          "during a fast-forwarded idle spin; only the "
                          "node's own handlers or program may make it "
                          "true (pollEachUntil waits on other nodes)",
                          p_.id());
            }
            skip = skipQuietPolls(p_.eq().now());
            if (skip > 0)
                co_await p_.delay(skip);
        }
    }
}

Tick
MsgLayer::skipQuietPolls(Tick first)
{
    // Polls would start at `first` and every period after it, each
    // reading what the last one read and finding nothing, until
    // something reaches the node. Skip every such poll that completes,
    // idle wait included, strictly before the horizon, so each
    // same-tick order the per-poll loop produces is kept. Returns the
    // ticks skipped.
    if (!softBuf_.empty())
        return 0;
    const Tick pollCycles = ni_.quietPollCycles(p_, ctx_);
    if (pollCycles == 0)
        return 0;
    const Tick period = pollCycles + kIdlePollCycles;
    const Tick horizon = horizon_();
    if (horizon <= first + period)
        return 0;
    const std::uint64_t polls = (horizon - 1 - first) / period;
    // Each skipped poll elides its own events and the idle wait that
    // starts it, except that a poll starting now is started by the
    // landing that is deciding here, which has run.
    const std::uint64_t waits =
        first > p_.eq().now() ? polls : polls - 1;
    eventsElided_ += ni_.chargeQuietPolls(p_, ctx_, polls) + waits;
    pollsElided_ += polls;
    elidedUntil_ = first + polls * period;
    return polls * period;
}

} // namespace cni
