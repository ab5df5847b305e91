/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-order event queue drives a (serial) simulated machine.
 * Events scheduled for the same tick execute in scheduling order
 * (deterministic FIFO tie-break), which makes every simulation in this
 * repository exactly reproducible.
 *
 * Under the sharded kernel (sim/parallel_kernel.hpp) each shard owns one
 * EventQueue and the same ordering rule applies per shard; cross-shard
 * effects are merged at window barriers in a canonical order, so the
 * determinism guarantee extends to multi-threaded runs.
 *
 * Internally the queue is a hierarchical timing wheel over a per-queue
 * event slab, replacing the earlier push_heap/pop_heap vector:
 *
 *  - every pending event lives in one contiguous slab (vector of
 *    slots recycled through a free list), so a queue's working set is
 *    a few adjacent cache lines no matter which tick each event
 *    targets — the property that made the old heap fast for the
 *    sharded kernel's many small queues, kept here by construction;
 *  - L0: 256 one-tick buckets covering [wheelBase, wheelBase + 256).
 *    A bucket is an intrusive FIFO (head/tail slab indices, 8 bytes);
 *    scheduling appends in O(1) (sequence numbers are monotonic, so
 *    buckets stay (tick, seq)-sorted for free), popping unlinks the
 *    head, and a 4-word occupancy bitmap finds the next non-empty
 *    tick with a couple of countr_zero's.
 *  - L1: 256 slots of 256 ticks covering [l1Base, l1Base + 65536),
 *    same intrusive-list representation. When time crosses a 256-tick
 *    boundary the matching slot is sorted by (tick, seq) and dealt
 *    into L0 — amortized O(1) per event.
 *  - Overflow: a small binary heap for events beyond the 64K horizon
 *    (long watchdogs, retry timers); drained into the wheel when time
 *    crosses a 64K boundary. Far-future events are rare, so the sift
 *    cost never shows up on the hot path.
 *
 * The execution order is exactly the old heap's (tick, seq) total order
 * — proven by a randomized equivalence fuzz in tests/sim. The model
 * checker (src/mc) holds its in-flight protocol messages outside the
 * queue, so the queue is empty at every state it explores and a
 * Snapshot is just the clock.
 */

#ifndef CNI_SIM_EVENT_QUEUE_HPP
#define CNI_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace cni
{

/**
 * Inline capture budget of a kernel-scheduled callback. Sized for the
 * largest hot-path lambda — an Interconnect delivery closure capturing a
 * whole NetMsg (~64 bytes with the copy-on-demand payload) — with room
 * to spare; anything bigger fails to compile (see inline_fn.hpp).
 */
inline constexpr std::size_t kEventCallbackBytes = 112;

/**
 * The event queue: a hierarchical timing wheel of (tick, sequence,
 * callback) — see the file comment for the geometry.
 *
 * The kernel is deliberately minimal: components schedule plain callbacks;
 * the coroutine layer (sim/task.hpp) builds structured concurrency on top.
 */
class EventQueue
{
  public:
    using Callback = InlineFn<void(), kEventCallbackBytes>;

    /** One scheduled event (move-only: its callback is). */
    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Callback cb;

        bool
        operator>(const Event &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    /** nextTick() result when no events are pending. */
    static constexpr Tick kNoEvent = ~Tick{0};

    /** Current simulated time in processor cycles. */
    Tick now() const { return curTick_; }

    /**
     * Schedule `f` (a callable or a Callback) to run at absolute tick
     * `when` (>= now). A wheel-resident event's callback is built
     * straight in its slab slot: no temporary Event is moved around.
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&f)
    {
        cni_assert(when >= curTick_);
        const std::uint64_t seq = nextSeq_++;
        ++live_;
        // Keep the memoized minimum exact when it is currently valid;
        // an invalidated cache (kNoEvent) stays invalid until queried.
        if (cachedNext_ != kNoEvent && when < cachedNext_)
            cachedNext_ = when;
        List *const list = bucketFor(when);
        if (list == nullptr) {
            pushOverflow(Event{when, seq, Callback(std::forward<F>(f))});
            return;
        }
        const std::int32_t idx = allocSlot();
        Event &ev = slab_[std::size_t(idx)].ev;
        ev.when = when;
        ev.seq = seq;
        ev.cb.emplace(std::forward<F>(f));
        append(*list, idx);
    }

    /** Schedule `f` to run `delta` ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f)
    {
        scheduleAt(curTick_ + delta, std::forward<F>(f));
    }

    /**
     * The queue's whole state at a point where nothing is pending: the
     * clock. The model checker (src/mc) takes one at every state it
     * explores — it holds in-flight protocol messages itself, so its
     * queue is empty there — and rewinds to it on backtracking.
     */
    struct Snapshot
    {
        Tick curTick = 0;
    };

    Snapshot
    snapshot() const
    {
        cni_assert(live_ == 0);
        return Snapshot{curTick_};
    }

    /**
     * Move an empty queue's clock to `s` — backwards too — and rebase
     * the wheel there, so events scheduled next file relative to the
     * restored tick, not to wherever the wheel last advanced.
     */
    void
    restore(const Snapshot &s)
    {
        cni_assert(live_ == 0);
        curTick_ = s.curTick;
        wheelBase_ = curTick_ & ~kL0Mask;
        l1Base_ = curTick_ & ~kL1Mask;
        cachedNext_ = kNoEvent;
    }

    /** True when no events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return live_; }

    /** Tick of the earliest pending event, or kNoEvent when empty. */
    Tick
    nextTick() const
    {
        if (live_ == 0)
            return kNoEvent;
        if (cachedNext_ == kNoEvent)
            cachedNext_ = findWheelMin();
        return cachedNext_;
    }

    /** Run one event; returns false if the queue was empty. */
    bool
    step()
    {
        if (live_ == 0)
            return false;
        const Tick t = nextTick();
        advanceWheel(t);
        List &b = l0_[t & kL0Mask];
        cni_assert(b.head >= 0);
        const std::int32_t idx = b.head;
        b.head = slab_[std::size_t(idx)].next;
        if (b.head < 0) {
            b.tail = -1;
            l0Bits_[(t & kL0Mask) >> 6] &=
                ~(std::uint64_t{1} << (t & 63));
            cachedNext_ = kNoEvent; // bucket drained: recompute lazily
        }
        // Move out only the callback: running it may grow (and so
        // relocate) the slab.
        Event &slot = slab_[std::size_t(idx)].ev;
        cni_assert(slot.when >= curTick_);
        Callback cb = std::move(slot.cb);
        freeSlot(idx);
        --live_;
        curTick_ = t;
        ++executed_;
        cb();
        return true;
    }

    /** Run until the queue drains. Returns the final tick. */
    Tick
    run()
    {
        while (step()) {
        }
        return curTick_;
    }

    /**
     * Run until the queue drains or simulated time reaches `limit`.
     * Events at ticks > limit stay queued.
     */
    Tick
    runUntil(Tick limit)
    {
        while (live_ != 0 && nextTick() <= limit)
            step();
        return curTick_;
    }

    /**
     * Run until `pred()` becomes true (checked after every event) or the
     * queue drains. Returns true if the predicate was satisfied.
     */
    template <typename Pred>
    bool
    runUntilDone(Pred &&pred)
    {
        while (!pred()) {
            if (!step())
                return false;
        }
        return true;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

  private:
    // Wheel geometry. L0 resolves single ticks across 256 of them; L1
    // resolves 256-tick slots across 64K; everything further out heaps.
    // The 64K horizon covers the far timers real machines schedule
    // (window-retry backoffs, multi-thousand-cycle round trips) so the
    // overflow heap only sees pathological outliers.
    static constexpr Tick kL0Span = 256;
    static constexpr Tick kL0Mask = kL0Span - 1;
    static constexpr int kL1Slots = 256;
    static constexpr Tick kL1SlotTicks = kL0Span;
    static constexpr Tick kL1Span = kL1Slots * kL1SlotTicks; // 65536
    static constexpr Tick kL1Mask = kL1Span - 1;

    /**
     * One slab slot: an event plus its intrusive list link. Free slots
     * are chained through `next` as well (their moved-from callbacks
     * hold no resources).
     */
    struct Slot
    {
        Event ev;
        std::int32_t next = -1;
    };

    /**
     * One L0 tick bucket / L1 slot: an intrusive FIFO of slab indices.
     * Appends are naturally seq-sorted in L0 (sequence numbers are
     * monotonic and cascades only land in empty buckets, pre-sorted),
     * so the head is always the next event of its tick.
     */
    struct List
    {
        std::int32_t head = -1;
        std::int32_t tail = -1;
    };

    /** A free slab slot (recycled or new), unlinked. */
    std::int32_t
    allocSlot()
    {
        if (freeHead_ >= 0) {
            const std::int32_t idx = freeHead_;
            freeHead_ = slab_[std::size_t(idx)].next;
            slab_[std::size_t(idx)].next = -1;
            return idx;
        }
        slab_.emplace_back();
        return std::int32_t(slab_.size() - 1);
    }

    void
    freeSlot(std::int32_t idx)
    {
        slab_[std::size_t(idx)].next = freeHead_;
        freeHead_ = idx;
    }

    void
    append(List &l, std::int32_t idx)
    {
        if (l.tail < 0)
            l.head = idx;
        else
            slab_[std::size_t(l.tail)].next = idx;
        l.tail = idx;
    }

    /**
     * The L0 bucket or L1 slot tick `w` files into, its occupancy bit
     * set; nullptr when `w` lies past the L1 horizon (overflow heap).
     */
    List *
    bucketFor(Tick w)
    {
        cni_assert(w >= wheelBase_);
        if ((w & ~kL0Mask) == wheelBase_) {
            l0Bits_[(w & kL0Mask) >> 6] |= std::uint64_t{1} << (w & 63);
            return &l0_[w & kL0Mask];
        }
        if ((w & ~kL1Mask) == l1Base_) {
            const std::size_t j = (w - l1Base_) / kL1SlotTicks;
            l1Bits_[j >> 6] |= std::uint64_t{1} << (j & 63);
            return &l1_[j];
        }
        return nullptr;
    }

    void
    pushOverflow(Event &&ev)
    {
        overflow_.push_back(std::move(ev));
        std::push_heap(overflow_.begin(), overflow_.end(),
                       std::greater<>{});
    }

    /** File `ev` into L0 / L1 / overflow per the wheel invariants. */
    void
    place(Event &&ev)
    {
        List *const list = bucketFor(ev.when);
        if (list == nullptr) {
            pushOverflow(std::move(ev));
            return;
        }
        const std::int32_t idx = allocSlot();
        slab_[std::size_t(idx)].ev = std::move(ev);
        append(*list, idx);
    }

    /** Min pending tick in the wheel (live_ > 0). */
    Tick
    findWheelMin() const
    {
        for (int word = 0; word < 4; ++word) {
            if (l0Bits_[word] != 0) {
                return wheelBase_ + Tick(word) * 64 +
                       Tick(std::countr_zero(l0Bits_[word]));
            }
        }
        for (int word = 0; word < 4; ++word) {
            if (l1Bits_[word] != 0) {
                const int j = word * 64 +
                              std::countr_zero(l1Bits_[word]);
                Tick best = kNoEvent;
                for (std::int32_t i = l1_[std::size_t(j)].head; i >= 0;
                     i = slab_[std::size_t(i)].next)
                    best = std::min(best, slab_[std::size_t(i)].ev.when);
                return best;
            }
        }
        cni_assert(!overflow_.empty());
        return overflow_.front().when;
    }

    /**
     * Advance the wheel so tick `t` (the minimum pending tick) maps
     * into L0, cascading an L1 slot or draining the overflow heap when
     * a 256-tick / 64K-tick boundary is crossed. Because `t` is the
     * minimum, every structure below the new base is already empty.
     */
    void
    advanceWheel(Tick t)
    {
        if ((t & ~kL0Mask) == wheelBase_)
            return;
        if ((t & ~kL1Mask) != l1Base_) {
            // Crossed the 64K horizon: rebase both levels and deal the
            // heap's now-in-window events out. Popping the heap yields
            // (tick, seq) ascending, so every bucket/slot it fills
            // stays sorted.
            l1Base_ = t & ~kL1Mask;
            wheelBase_ = t & ~kL0Mask;
            const Tick horizon = l1Base_ + kL1Span;
            while (!overflow_.empty() &&
                   overflow_.front().when < horizon) {
                std::pop_heap(overflow_.begin(), overflow_.end(),
                              std::greater<>{});
                place(std::move(overflow_.back()));
                overflow_.pop_back();
            }
            return;
        }
        // Crossed into a later 256-tick epoch of the same 64K window:
        // deal the matching L1 slot into L0 in (tick, seq) order.
        wheelBase_ = t & ~kL0Mask;
        const std::size_t j = (wheelBase_ - l1Base_) / kL1SlotTicks;
        if ((l1Bits_[j >> 6] & (std::uint64_t{1} << (j & 63))) == 0)
            return;
        l1Bits_[j >> 6] &= ~(std::uint64_t{1} << (j & 63));
        scratch_.clear();
        for (std::int32_t i = l1_[j].head; i >= 0;
             i = slab_[std::size_t(i)].next)
            scratch_.push_back(i);
        l1_[j] = List{};
        std::sort(scratch_.begin(), scratch_.end(),
                  [this](std::int32_t a, std::int32_t b) {
                      const Event &ea = slab_[std::size_t(a)].ev;
                      const Event &eb = slab_[std::size_t(b)].ev;
                      if (ea.when != eb.when)
                          return ea.when < eb.when;
                      return ea.seq < eb.seq;
                  });
        for (const std::int32_t idx : scratch_) {
            const Tick w = slab_[std::size_t(idx)].ev.when;
            slab_[std::size_t(idx)].next = -1;
            append(l0_[w & kL0Mask], idx);
            l0Bits_[(w & kL0Mask) >> 6] |= std::uint64_t{1} << (w & 63);
        }
    }

    std::vector<Slot> slab_;      //!< every wheel-resident event
    std::int32_t freeHead_ = -1;  //!< free-slot chain through Slot::next
    std::array<List, std::size_t(kL0Span)> l0_;
    std::array<std::uint64_t, 4> l0Bits_{0, 0, 0, 0};
    std::array<List, std::size_t(kL1Slots)> l1_;
    std::array<std::uint64_t, 4> l1Bits_{0, 0, 0, 0};
    std::vector<Event> overflow_;      //!< min-heap by (when, seq)
    std::vector<std::int32_t> scratch_; //!< cascade sort buffer
    Tick wheelBase_ = 0;          //!< first tick L0 covers (256-aligned)
    Tick l1Base_ = 0;             //!< first tick L1 covers (64K-aligned)
    mutable Tick cachedNext_ = kNoEvent; //!< memoized findWheelMin()
    std::size_t live_ = 0;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace cni

#endif // CNI_SIM_EVENT_QUEUE_HPP
