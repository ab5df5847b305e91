/**
 * @file
 * Immutable, shared payload storage for network messages.
 *
 * Network messages are fixed 256-byte entities (Section 4.1), so their
 * payload never exceeds kNetworkPayloadBytes (244). An earlier revision
 * stored the payload as a 244-byte inline array — no heap traffic, but
 * every move through the fabric's staging queues, arrival deques, and
 * barrier closures memcpy'd all 244 bytes, and a NetMsg-capturing
 * lambda no longer fits a small-buffer callback.
 *
 * Now the payload is immutable once assigned:
 *  - payloads up to the header size (kNetworkHeaderBytes, 12 bytes —
 *    acks, control words, small user messages) stay inline: no
 *    allocation, trivially cheap copies;
 *  - larger payloads live in one refcounted shared buffer, allocated
 *    once per message at assign() time. Copies bump the refcount
 *    (NetMsg copies through receive rings and software buffers stop
 *    duplicating bytes) and moves steal the pointer. There is no
 *    mutable access, so sharing is never observable.
 *
 * The refcount is atomic because the sharded kernel moves messages
 * across shard threads via barrier posts; payload copies/destructions
 * on different shards may race on the count (never on the bytes — no
 * one writes them after assign()).
 *
 * The interface mirrors the std::vector subset the codebase uses, so
 * call sites read unchanged; conversion to std::vector exists for the
 * user-level (unbounded) message layer.
 */

#ifndef CNI_NET_PAYLOAD_HPP
#define CNI_NET_PAYLOAD_HPP

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace cni
{

class MsgPayload
{
  public:
    /** Payloads at most this long are stored inline (no allocation). */
    static constexpr std::size_t kInlineBytes = kNetworkHeaderBytes;

    MsgPayload() = default;

    MsgPayload(std::initializer_list<std::uint8_t> il)
    {
        assign(il.begin(), il.end());
    }

    MsgPayload(const MsgPayload &o) : size_(o.size_)
    {
        if (isInline()) {
            std::memcpy(inline_, o.inline_, size_);
        } else {
            shared_ = o.shared_;
            shared_->refs.fetch_add(1, std::memory_order_relaxed);
        }
    }

    MsgPayload(MsgPayload &&o) noexcept : size_(o.size_)
    {
        if (isInline())
            std::memcpy(inline_, o.inline_, size_);
        else
            shared_ = o.shared_;
        o.size_ = 0;
    }

    MsgPayload &
    operator=(const MsgPayload &o)
    {
        if (this != &o) {
            release();
            size_ = o.size_;
            if (isInline()) {
                std::memcpy(inline_, o.inline_, size_);
            } else {
                shared_ = o.shared_;
                shared_->refs.fetch_add(1, std::memory_order_relaxed);
            }
        }
        return *this;
    }

    MsgPayload &
    operator=(MsgPayload &&o) noexcept
    {
        if (this != &o) {
            release();
            size_ = o.size_;
            if (isInline())
                std::memcpy(inline_, o.inline_, size_);
            else
                shared_ = o.shared_;
            o.size_ = 0;
        }
        return *this;
    }

    ~MsgPayload() { release(); }

    MsgPayload &
    operator=(std::initializer_list<std::uint8_t> il)
    {
        assign(il.begin(), il.end());
        return *this;
    }

    /** Copy [first, last) into the buffer (pointers or contiguous iters). */
    void
    assign(const std::uint8_t *first, const std::uint8_t *last)
    {
        const std::size_t n = static_cast<std::size_t>(last - first);
        cni_assert(n <= kNetworkPayloadBytes);
        // The source may alias our own buffer (re-assign from a view of
        // this payload), so the old buffer is dropped only after the copy.
        Shared *old = isInline() ? nullptr : shared_;
        size_ = static_cast<std::uint16_t>(n);
        if (isInline()) {
            if (n > 0)
                std::memmove(inline_, first, n);
        } else {
            Shared *fresh = new Shared;
            std::memcpy(fresh->bytes, first, n);
            shared_ = fresh;
        }
        releaseShared(old);
    }

    /** Fill with `n` copies of `v`. */
    void
    assign(std::size_t n, std::uint8_t v)
    {
        cni_assert(n <= kNetworkPayloadBytes);
        Shared *old = isInline() ? nullptr : shared_;
        size_ = static_cast<std::uint16_t>(n);
        if (isInline()) {
            std::memset(inline_, v, n);
        } else {
            Shared *fresh = new Shared;
            std::memset(fresh->bytes, v, n);
            shared_ = fresh;
        }
        releaseShared(old);
    }

    /** Read-only: a payload changes only by assign() or assignment. */
    const std::uint8_t *
    data() const
    {
        return isInline() ? inline_ : shared_->bytes;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        release();
        size_ = 0;
    }

    const std::uint8_t *begin() const { return data(); }
    const std::uint8_t *end() const { return data() + size_; }

    /** User-level messages are unbounded vectors; convert on the way up. */
    operator std::vector<std::uint8_t>() const
    {
        return std::vector<std::uint8_t>(begin(), end());
    }

    friend bool
    operator==(const MsgPayload &a, const MsgPayload &b)
    {
        return a.size_ == b.size_ &&
               std::memcmp(a.data(), b.data(), a.size_) == 0;
    }

    friend bool
    operator==(const MsgPayload &a, const std::vector<std::uint8_t> &b)
    {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(), a.size()) == 0;
    }

    friend bool
    operator==(const std::vector<std::uint8_t> &a, const MsgPayload &b)
    {
        return b == a;
    }

  private:
    struct Shared
    {
        std::atomic<std::uint32_t> refs{1};
        std::uint8_t bytes[kNetworkPayloadBytes];
    };

    bool isInline() const { return size_ <= kInlineBytes; }

    static void
    releaseShared(Shared *s)
    {
        if (s != nullptr &&
            s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete s;
        }
    }

    void
    release()
    {
        if (!isInline())
            releaseShared(shared_);
    }

    std::uint16_t size_ = 0;
    union
    {
        std::uint8_t inline_[kInlineBytes] = {};
        Shared *shared_;
    };
};

} // namespace cni

#endif // CNI_NET_PAYLOAD_HPP
