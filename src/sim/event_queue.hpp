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
 *  - L1: 64 slots of 256 ticks covering [l1Base, l1Base + 16384),
 *    same intrusive-list representation. When time crosses a 256-tick
 *    boundary the matching slot is sorted by (tick, seq) and dealt
 *    into L0 — amortized O(1) per event.
 *  - Overflow: a small binary heap for events beyond the 16K horizon
 *    (long watchdogs, retry timers); drained into the wheel when time
 *    crosses a 16K boundary. Far-future events are rare, so the sift
 *    cost never shows up on the hot path.
 *
 * The execution order is exactly the old heap's (tick, seq) total order
 * — proven by a randomized equivalence fuzz in tests/sim — and the
 * choice-point seam (a flat scanned vector while a ChoiceScheduler is
 * installed) and Snapshot/restore semantics are preserved.
 */

#ifndef CNI_SIM_EVENT_QUEUE_HPP
#define CNI_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/choice.hpp"
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

    /**
     * One scheduled event. channel/meta are the choice-point tagging
     * (sim/choice.hpp): channel < 0 is an ordinary (untagged) event;
     * tagged events form per-channel FIFOs a ChoiceScheduler picks
     * among. Both fields are null/-1 on the canonical hot path.
     *
     * Events move on the hot path; the copy operations clone the
     * callback (InlineFn::clone) and exist only for snapshot().
     */
    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Callback cb;
        std::int32_t channel = -1;
        std::shared_ptr<const ChoiceMeta> meta;

        Event() = default;
        Event(Tick w, std::uint64_t s, Callback c, std::int32_t ch = -1,
              std::shared_ptr<const ChoiceMeta> m = nullptr)
            : when(w), seq(s), cb(std::move(c)), channel(ch),
              meta(std::move(m))
        {
        }
        Event(Event &&) = default;
        Event &operator=(Event &&) = default;
        Event(const Event &o)
            : when(o.when), seq(o.seq), cb(o.cb.clone()),
              channel(o.channel), meta(o.meta)
        {
        }
        Event &
        operator=(const Event &o)
        {
            if (this != &o) {
                when = o.when;
                seq = o.seq;
                cb = o.cb.clone();
                channel = o.channel;
                meta = o.meta;
            }
            return *this;
        }

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
        if (chooser_ != nullptr) {
            choice_.emplace_back(when, seq, Callback(std::forward<F>(f)));
            return;
        }
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
        ev.channel = -1;
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

    // --- choice-point seam (sim/choice.hpp) -----------------------------

    /**
     * Install (or, with nullptr, remove) a ChoiceScheduler. While one
     * is installed, step() offers the ready candidates — every untagged
     * event plus the head of every tagged channel — to the scheduler
     * instead of popping the timing wheel, and the tick only advances
     * monotonically (a chosen event never rewinds it). The wheel order
     * is restored on removal.
     */
    void
    setChooser(ChoiceScheduler *c)
    {
        if (c != nullptr && chooser_ == nullptr) {
            // Wheel -> flat vector: drain every pending event. The
            // vector order is irrelevant to choice-mode semantics (all
            // scans pick by content), but draining in wheel order keeps
            // it deterministic.
            chooser_ = c;
            drainWheelInto(choice_);
        } else if (c == nullptr && chooser_ != nullptr) {
            chooser_ = nullptr;
            rebuildWheel(std::move(choice_));
            choice_.clear();
        } else {
            chooser_ = c;
        }
    }

    /** Is a ChoiceScheduler installed? Tagging call sites check this. */
    bool choiceMode() const { return chooser_ != nullptr; }

    /**
     * Schedule a *tagged* event: one of `channel`'s FIFO class, carrying
     * the message description `meta` for fingerprints and traces. Only
     * meaningful in choice mode — callers on the hot path must check
     * choiceMode() first and fall back to scheduleIn (this overload
     * does so too, dropping the metadata, so a race with chooser
     * removal stays correct).
     */
    void
    scheduleChoice(std::int32_t channel,
                   std::shared_ptr<const ChoiceMeta> meta, Tick delta,
                   Callback cb)
    {
        if (!chooser_) {
            scheduleIn(delta, std::move(cb));
            return;
        }
        cni_assert(channel >= 0);
        ++live_;
        choice_.emplace_back(curTick_ + delta, nextSeq_++, std::move(cb),
                             channel, std::move(meta));
    }

    /**
     * The ready heads of every tagged channel (lowest sequence per
     * channel), sorted by channel id. Choice mode only.
     */
    std::vector<ChoiceOption>
    taggedHeads() const
    {
        std::vector<ChoiceOption> heads;
        forEachEvent([&](const Event &ev) {
            if (ev.channel < 0)
                return;
            ChoiceOption *slot = nullptr;
            for (ChoiceOption &h : heads) {
                if (h.channel == ev.channel)
                    slot = &h;
            }
            if (slot == nullptr) {
                heads.push_back(ChoiceOption{ev.channel, ev.seq, ev.when,
                                             ev.meta.get()});
            } else if (ev.seq < slot->seq) {
                *slot = ChoiceOption{ev.channel, ev.seq, ev.when,
                                     ev.meta.get()};
            }
        });
        std::sort(heads.begin(), heads.end(),
                  [](const ChoiceOption &a, const ChoiceOption &b) {
                      return a.channel < b.channel;
                  });
        return heads;
    }

    /** Any untagged (deterministic continuation) event pending? */
    bool
    hasUntagged() const
    {
        bool found = false;
        forEachEvent([&](const Event &ev) {
            if (ev.channel < 0)
                found = true;
        });
        return found;
    }

    /**
     * Visit every tagged event in (channel, sequence) order — the full
     * in-flight message set, for state fingerprints.
     */
    void
    forEachTagged(
        const std::function<void(std::int32_t, const ChoiceMeta &)> &fn)
        const
    {
        std::vector<const Event *> tagged;
        forEachEvent([&](const Event &ev) {
            if (ev.channel >= 0)
                tagged.push_back(&ev);
        });
        std::sort(tagged.begin(), tagged.end(),
                  [](const Event *a, const Event *b) {
                      if (a->channel != b->channel)
                          return a->channel < b->channel;
                      return a->seq < b->seq;
                  });
        for (const Event *ev : tagged)
            fn(ev->channel, *ev->meta);
    }

    /**
     * Copyable image of the pending-event state, for model-checking
     * backtracking. Copying events clones their callbacks — sound for
     * callbacks capturing plain values and pointers to long-lived
     * components (everything the coherence machinery schedules), but
     * NOT for coroutine resumptions, whose frames are shared, not
     * copied. The model-checking rig contains no coroutines; machines
     * running proc/app workloads do, so snapshots are only taken of
     * rigs built for checking.
     */
    struct Snapshot
    {
        std::vector<Event> events; //!< sequence order (canonical)
        Tick curTick = 0;
        std::uint64_t nextSeq = 0;
        std::uint64_t executed = 0;
    };

    Snapshot
    snapshot() const
    {
        Snapshot s;
        s.events.reserve(live_);
        forEachEvent([&](const Event &ev) { s.events.push_back(ev); });
        std::sort(s.events.begin(), s.events.end(),
                  [](const Event &a, const Event &b) {
                      return a.seq < b.seq;
                  });
        s.curTick = curTick_;
        s.nextSeq = nextSeq_;
        s.executed = executed_;
        return s;
    }

    void
    restore(const Snapshot &s)
    {
        curTick_ = s.curTick;
        nextSeq_ = s.nextSeq;
        executed_ = s.executed;
        choice_.clear();
        clearWheel();
        live_ = s.events.size();
        if (chooser_ != nullptr) {
            choice_ = s.events; // clones
            return;
        }
        rebuildWheel(std::vector<Event>(s.events)); // clones
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
        if (chooser_ != nullptr) {
            Tick best = kNoEvent;
            for (const Event &ev : choice_)
                best = std::min(best, ev.when);
            return best;
        }
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
        if (chooser_ != nullptr)
            return stepChoice();
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
        // relocate) the slab. A tagged event's meta, left behind by a
        // chooser round trip, is dropped so the free slot holds nothing.
        Event &slot = slab_[std::size_t(idx)].ev;
        cni_assert(slot.when >= curTick_);
        Callback cb = std::move(slot.cb);
        if (slot.meta)
            slot.meta.reset();
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
     * Events at ticks > limit stay queued. (nextTick(), not a raw
     * front-of-vector read, so this is correct in choice mode too.)
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
     * and reset metas hold no resources).
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
     * Choice-mode step: offer the ready candidates (all untagged
     * events + each tagged channel's lowest-sequence head) to the
     * installed scheduler, run its pick, and advance the tick
     * monotonically. The vector is scanned linearly — no wheel
     * maintenance — which is irrelevant at model-checking scale
     * (a handful of nodes, tens of pending events).
     */
    bool
    stepChoice()
    {
        std::vector<ChoiceOption> options;
        std::vector<std::size_t> where;
        for (std::size_t i = 0; i < choice_.size(); ++i) {
            const Event &ev = choice_[i];
            if (ev.channel < 0) {
                options.push_back(ChoiceOption{-1, ev.seq, ev.when,
                                               nullptr});
                where.push_back(i);
                continue;
            }
            // Head of its channel so far?
            std::size_t at = options.size();
            for (std::size_t k = 0; k < options.size(); ++k) {
                if (options[k].channel == ev.channel)
                    at = k;
            }
            if (at == options.size()) {
                options.push_back(ChoiceOption{ev.channel, ev.seq,
                                               ev.when, ev.meta.get()});
                where.push_back(i);
            } else if (ev.seq < options[at].seq) {
                options[at] = ChoiceOption{ev.channel, ev.seq, ev.when,
                                           ev.meta.get()};
                where[at] = i;
            }
        }
        const std::size_t pick = chooser_->choose(options);
        cni_assert(pick < options.size());
        const std::size_t idx = where[pick];
        Event ev = std::move(choice_[idx]);
        choice_[idx] = std::move(choice_.back());
        choice_.pop_back();
        --live_;
        // Time is a partial order here: a chosen event may carry an
        // earlier tick than one already executed on another channel.
        curTick_ = std::max(curTick_, ev.when);
        ++executed_;
        ev.cb();
        return true;
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

    /** Min pending tick in the wheel (live_ > 0, wheel mode). */
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
     * a 256-tick / 16K-tick boundary is crossed. Because `t` is the
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

    /** Visit every pending event (either representation), any order. */
    template <typename Fn>
    void
    forEachEvent(Fn &&fn) const
    {
        if (chooser_ != nullptr) {
            for (const Event &ev : choice_)
                fn(ev);
            // Fall through: after a chooser swap mid-flight the wheel
            // is empty, but visiting it is harmless and keeps this
            // correct in every mode.
        }
        for (const List &b : l0_) {
            for (std::int32_t i = b.head; i >= 0;
                 i = slab_[std::size_t(i)].next)
                fn(slab_[std::size_t(i)].ev);
        }
        for (const List &slot : l1_) {
            for (std::int32_t i = slot.head; i >= 0;
                 i = slab_[std::size_t(i)].next)
                fn(slab_[std::size_t(i)].ev);
        }
        for (const Event &ev : overflow_)
            fn(ev);
    }

    /** Move every wheel event into `out` (wheel order), emptying it. */
    void
    drainWheelInto(std::vector<Event> &out)
    {
        for (List &b : l0_) {
            for (std::int32_t i = b.head; i >= 0;
                 i = slab_[std::size_t(i)].next)
                out.push_back(std::move(slab_[std::size_t(i)].ev));
            b = List{};
        }
        for (List &slot : l1_) {
            for (std::int32_t i = slot.head; i >= 0;
                 i = slab_[std::size_t(i)].next)
                out.push_back(std::move(slab_[std::size_t(i)].ev));
            slot = List{};
        }
        for (Event &ev : overflow_)
            out.push_back(std::move(ev));
        overflow_.clear();
        slab_.clear();
        freeHead_ = -1;
        l0Bits_ = {0, 0, 0, 0};
        l1Bits_ = {0, 0, 0, 0};
        cachedNext_ = kNoEvent;
    }

    /** Drop every wheel event and reset the wheel bookkeeping. */
    void
    clearWheel()
    {
        l0_.fill(List{});
        l1_.fill(List{});
        slab_.clear(); // runs every pending event's destructor
        freeHead_ = -1;
        overflow_.clear();
        l0Bits_ = {0, 0, 0, 0};
        l1Bits_ = {0, 0, 0, 0};
        cachedNext_ = kNoEvent;
    }

    /**
     * Rebuild the wheel from an arbitrary event set (chooser removal,
     * restore). Rebases the wheel at the earliest event if that lies
     * behind the current tick — choice-mode time is a partial order, so
     * a snapshot can hold events at ticks before curTick; they execute
     * next, exactly as the old kernel's rebuilt heap would pop them.
     */
    void
    rebuildWheel(std::vector<Event> events)
    {
        clearWheel();
        Tick base = curTick_;
        for (const Event &ev : events)
            base = std::min(base, ev.when);
        l1Base_ = base & ~kL1Mask;
        wheelBase_ = base & ~kL0Mask;
        // Buckets must receive ascending sequence numbers.
        std::sort(events.begin(), events.end(),
                  [](const Event &a, const Event &b) {
                      return a.seq < b.seq;
                  });
        for (Event &ev : events)
            place(std::move(ev));
    }

    std::vector<Slot> slab_;      //!< every wheel-resident event
    std::int32_t freeHead_ = -1;  //!< free-slot chain through Slot::next
    std::array<List, std::size_t(kL0Span)> l0_;
    std::array<std::uint64_t, 4> l0Bits_{0, 0, 0, 0};
    std::array<List, std::size_t(kL1Slots)> l1_;
    std::array<std::uint64_t, 4> l1Bits_{0, 0, 0, 0};
    std::vector<Event> overflow_;      //!< min-heap by (when, seq)
    std::vector<Event> choice_;        //!< flat scan vector in choice mode
    std::vector<std::int32_t> scratch_; //!< cascade sort buffer
    Tick wheelBase_ = 0;          //!< first tick L0 covers (256-aligned)
    Tick l1Base_ = 0;             //!< first tick L1 covers (16K-aligned)
    mutable Tick cachedNext_ = kNoEvent; //!< memoized findWheelMin()
    std::size_t live_ = 0;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    ChoiceScheduler *chooser_ = nullptr;
};

} // namespace cni

#endif // CNI_SIM_EVENT_QUEUE_HPP
