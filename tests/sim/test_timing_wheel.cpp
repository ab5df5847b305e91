/**
 * @file
 * Scheduler-order proofs for the timing-wheel EventQueue.
 *
 * The wheel (sim/event_queue.hpp) replaced a binary-heap queue; its
 * contract is exact preservation of the canonical (tick, scheduling
 * sequence) total order across all three residence classes — the L0
 * one-tick buckets, the L1 coarse slots, and the far-future overflow
 * heap — including events that migrate between classes as time
 * advances (L1 -> L0 cascades, overflow -> wheel refills). These tests
 * pin that contract with a randomized 10k-event fuzz against a
 * reference model — also with callbacks that grow the event slab while
 * they run — and pin the wheel's interaction with the two stateful
 * features layered on it: snapshot/restore and choice mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <utility>
#include <vector>

#include "sim/choice.hpp"
#include "sim/event_queue.hpp"

namespace cni
{
namespace
{

/**
 * Randomized scheduler workload. Deltas are drawn from all three
 * residence bands (L0 < 256 ticks, L1 < 16K, overflow beyond), with
 * deliberate same-tick bursts, and roughly a quarter of the events are
 * scheduled from inside a running callback — the case where a fresh
 * event lands in a partially drained bucket.
 *
 * The reference model: events recorded in schedule order execute in a
 * stable sort by tick (scheduling sequence breaks ties), which is the
 * kernel's canonical order by construction.
 *
 * Every callback carries a payload derived from its id and checks it
 * when it runs, so a callback damaged in its slab slot — or while the
 * slab moved under it — shows up as corruption, not just misorder.
 */
struct FuzzRig
{
    explicit FuzzRig(std::uint64_t seed) : rng(seed) {}

    Tick
    drawDelta()
    {
        switch (rng() % 8) {
          case 0: // same-tick burst fodder
            return Tick(rng() % 4);
          case 1:
          case 2:
          case 3: // L0 band
            return Tick(rng() % 256);
          case 4:
          case 5:
          case 6: // L1 band
            return Tick(rng() % 16384);
          default: // overflow band
            return Tick(16384 + rng() % 100000);
        }
    }

    using Payload = std::array<std::uint64_t, 11>;

    static Payload
    payloadOf(int id)
    {
        Payload p{};
        for (std::size_t k = 0; k < p.size(); ++k)
            p[k] = std::uint64_t(id) * 0x9e3779b97f4a7c15ull + k;
        return p;
    }

    void
    scheduleOne()
    {
        const Tick delta = drawDelta();
        const int id = nextId++;
        sched.emplace_back(eq.now() + delta, id);
        eq.scheduleIn(delta, [this, id, payload = payloadOf(id)] {
            if (payload != payloadOf(id))
                ++corrupt;
            ran.push_back(id);
            // Bursts (keyed on the id, so the rng draws of a run without
            // them are unchanged) grow the slab from inside a callback.
            if (burstEvery > 0 && id % burstEvery == 0) {
                for (int k = 0; k < burstSize && budget > 0; ++k) {
                    --budget;
                    scheduleOne();
                }
                maxPending = std::max(maxPending, eq.pending());
            }
            while (budget > 0 && rng() % 4 == 0) {
                --budget;
                scheduleOne();
            }
        });
    }

    std::vector<int>
    expectedOrder() const
    {
        std::vector<std::pair<Tick, int>> byTick = sched;
        std::stable_sort(byTick.begin(), byTick.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<int> ids;
        ids.reserve(byTick.size());
        for (const auto &[when, id] : byTick)
            ids.push_back(id);
        return ids;
    }

    EventQueue eq;
    std::mt19937_64 rng;
    std::vector<std::pair<Tick, int>> sched; //!< (tick, id), seq order
    std::vector<int> ran;
    int nextId = 0;
    int budget = 2500; //!< events scheduled from inside callbacks
    int burstEvery = 0; //!< ids divisible by this burst (0: never)
    int burstSize = 0;
    std::size_t maxPending = 0; //!< peak pending() right after a burst
    int corrupt = 0;            //!< callbacks whose payload was damaged
};

TEST(TimingWheel, FuzzMatchesReferenceOrder10k)
{
    for (std::uint64_t seed : {1ull, 42ull, 1996ull}) {
        FuzzRig rig(seed);
        for (int i = 0; i < 7500; ++i)
            rig.scheduleOne();
        rig.eq.run();
        EXPECT_EQ(rig.ran.size(), 10000u) << "seed " << seed;
        EXPECT_EQ(rig.ran, rig.expectedOrder()) << "seed " << seed;
        EXPECT_EQ(rig.eq.executed(), 10000u);
        EXPECT_TRUE(rig.eq.empty());
        EXPECT_EQ(rig.corrupt, 0) << "seed " << seed;
    }
}

/**
 * Start small and let running callbacks schedule bursts: the slab grows
 * (and reallocates) while a callback that was just moved out of it is
 * still executing, and freed slots are recycled under the new events.
 */
TEST(TimingWheel, FuzzSlabGrowsInsideRunningCallbacks)
{
    for (std::uint64_t seed : {3ull, 77ull, 2024ull}) {
        FuzzRig rig(seed);
        rig.budget = 20000;
        rig.burstEvery = 40;
        rig.burstSize = 300;
        for (int i = 0; i < 32; ++i)
            rig.scheduleOne();
        rig.eq.run();
        EXPECT_EQ(rig.ran.size(), rig.sched.size()) << "seed " << seed;
        EXPECT_EQ(rig.ran, rig.expectedOrder()) << "seed " << seed;
        EXPECT_EQ(rig.corrupt, 0) << "seed " << seed;
        EXPECT_GT(rig.maxPending, 32u * 8) << "seed " << seed;
        EXPECT_TRUE(rig.eq.empty());
    }
}

/** nextTick() stays exact while events drain across all bands. */
TEST(TimingWheel, NextTickTracksTheFrontier)
{
    EventQueue eq;
    const std::vector<Tick> ticks = {3,     3,     40,    255,   256,
                                     4000,  16383, 16384, 20000, 131072};
    for (Tick t : ticks)
        eq.scheduleAt(t, [] {});
    for (std::size_t i = 0; i < ticks.size(); ++i) {
        ASSERT_EQ(eq.nextTick(), ticks[i]);
        eq.step();
        EXPECT_EQ(eq.now(), ticks[i]);
    }
    EXPECT_EQ(eq.nextTick(), EventQueue::kNoEvent);
}

/** Snapshot before running; restore must replay the identical order. */
TEST(TimingWheel, SnapshotRestoreReplaysExactly)
{
    EventQueue eq;
    std::vector<int> ran;
    std::mt19937_64 rng(7);
    for (int id = 0; id < 500; ++id) {
        const Tick when = Tick(rng() % 40000);
        eq.scheduleAt(when, [&ran, id] { ran.push_back(id); });
    }
    const EventQueue::Snapshot snap = eq.snapshot();

    eq.run();
    const std::vector<int> first = ran;
    EXPECT_EQ(first.size(), 500u);

    ran.clear();
    eq.restore(snap);
    EXPECT_EQ(eq.pending(), 500u);
    eq.run();
    EXPECT_EQ(ran, first);
}

/** Restore taken mid-run resumes with the identical tail. */
TEST(TimingWheel, MidRunSnapshotResumesIdentically)
{
    EventQueue eq;
    std::vector<int> ran;
    for (int id = 0; id < 300; ++id) {
        const Tick when = Tick((id * 7919) % 20000);
        eq.scheduleAt(when, [&ran, id] { ran.push_back(id); });
    }
    for (int i = 0; i < 100; ++i)
        eq.step();
    const EventQueue::Snapshot snap = eq.snapshot();
    const std::size_t prefix = ran.size();

    eq.run();
    const std::vector<int> whole = ran;

    ran.resize(prefix);
    eq.restore(snap);
    eq.run();
    EXPECT_EQ(ran, whole);
}

/**
 * The canonical chooser must be a no-op: a choice-mode run (which
 * drains the wheel into the flat candidate vector and picks the
 * (tick, seq) minimum each step) produces the same order as the plain
 * wheel run, including for tagged per-channel events.
 */
TEST(TimingWheel, CanonicalChoiceMatchesWheelOrder)
{
    auto build = [](EventQueue &eq, std::vector<int> &ran) {
        std::mt19937_64 rng(11);
        // Per-channel ticks must be nondecreasing in scheduling order:
        // the choice seam delivers each channel in FIFO (sequence)
        // order, which coincides with tick order only under the
        // arrival-monotonicity every fabric model guarantees per
        // (src, dst) pair. Random per-event ticks would test an
        // interleaving no physical machine can produce.
        Tick lastWhen[5] = {0, 0, 0, 0, 0};
        for (int id = 0; id < 400; ++id) {
            if (id % 3 == 0) {
                // Tagged: channel = id % 5. Falls back to a plain
                // schedule when no chooser is installed.
                const int ch = id % 5;
                lastWhen[ch] += Tick(rng() % 500);
                auto meta = std::make_shared<const ChoiceMeta>(
                    ChoiceMeta{"t", {std::uint8_t(id)}});
                eq.scheduleChoice(ch, std::move(meta), lastWhen[ch],
                                  [&ran, id] { ran.push_back(id); });
            } else {
                const Tick delta = Tick(rng() % 30000);
                eq.scheduleIn(delta, [&ran, id] { ran.push_back(id); });
            }
        }
    };

    EventQueue plain;
    std::vector<int> plainRan;
    build(plain, plainRan);
    plain.run();

    EventQueue chosen;
    std::vector<int> chosenRan;
    CanonicalChoice canon;
    chosen.setChooser(&canon);
    build(chosen, chosenRan);
    chosen.run();

    EXPECT_EQ(plainRan.size(), 400u);
    EXPECT_EQ(chosenRan, plainRan);
}

/**
 * Installing and removing a chooser round-trips the pending set
 * through the flat vector and back into the wheel without disturbing
 * the order.
 */
TEST(TimingWheel, ChooserInstallRemoveRoundTrip)
{
    EventQueue eq;
    std::vector<int> ran;
    for (int id = 0; id < 200; ++id) {
        const Tick when = Tick((id * 37) % 5000);
        eq.scheduleAt(when, [&ran, id] { ran.push_back(id); });
    }
    CanonicalChoice canon;
    eq.setChooser(&canon);
    for (int i = 0; i < 50; ++i)
        eq.step();
    eq.setChooser(nullptr); // rebuild the wheel from the survivors
    eq.run();

    std::vector<std::pair<Tick, int>> ref;
    for (int id = 0; id < 200; ++id)
        ref.emplace_back(Tick((id * 37) % 5000), id);
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(ran.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ran[i], ref[i].second) << "at " << i;
}

/**
 * Deterministic self-scheduling workload for round trips: every event
 * schedules up to two children whose deltas (all three residence bands)
 * and ids follow from its own id, and every seventh event is tagged on
 * a channel of its own (so canonical choice order is the wheel order).
 * The whole run is a function of the pending set and nextId, which a
 * test saves beside each snapshot.
 */
struct TreeRig
{
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    void
    schedule(int id)
    {
        const std::uint64_t h = mix(std::uint64_t(id));
        const Tick delta = (h & 7) == 0   ? Tick(16384 + (h >> 8) % 50000)
                           : (h & 7) < 4 ? Tick((h >> 8) % 256)
                                         : Tick((h >> 8) % 16384);
        auto body = [this, id] {
            ran.push_back(id);
            const std::uint64_t g = mix(std::uint64_t(id) + 1);
            for (int k = 0; k < int(g % 3) && nextId < kMaxEvents; ++k)
                schedule(nextId++);
        };
        if (id % 7 == 0) {
            auto meta = std::make_shared<const ChoiceMeta>(
                ChoiceMeta{"tree", {std::uint8_t(id)}});
            eq.scheduleChoice(id, std::move(meta), delta, std::move(body));
        } else {
            eq.scheduleIn(delta, std::move(body));
        }
    }

    void
    seed()
    {
        for (int i = 0; i < 200; ++i)
            schedule(nextId++);
    }

    static constexpr int kMaxEvents = 4000;
    EventQueue eq;
    std::vector<int> ran;
    int nextId = 0;
};

/**
 * A snapshot restore and a choice-mode round trip (install, run, a
 * choice-mode snapshot restore, remove) in the middle of a run that
 * keeps scheduling: events placed in every mode, tagged ones carrying
 * their meta back into the wheel, replay the plain wheel run exactly.
 */
TEST(TimingWheel, SnapshotAndChoiceRoundTripsReplayThePlainRun)
{
    TreeRig plain;
    plain.seed();
    plain.eq.run();
    ASSERT_EQ(plain.ran.size(), std::size_t(TreeRig::kMaxEvents));

    TreeRig rig;
    rig.seed();
    const EventQueue::Snapshot start = rig.eq.snapshot();
    const int startNext = rig.nextId;
    for (int i = 0; i < 300; ++i)
        rig.eq.step();
    rig.eq.restore(start);
    rig.ran.clear();
    rig.nextId = startNext;

    CanonicalChoice canon;
    rig.eq.setChooser(&canon);
    for (int i = 0; i < 400; ++i)
        rig.eq.step();
    const EventQueue::Snapshot mid = rig.eq.snapshot();
    const std::size_t midRan = rig.ran.size();
    const int midNext = rig.nextId;
    for (int i = 0; i < 100; ++i)
        rig.eq.step();
    rig.eq.restore(mid);
    rig.ran.resize(midRan);
    rig.nextId = midNext;
    for (int i = 0; i < 100; ++i)
        rig.eq.step();
    rig.eq.setChooser(nullptr);
    rig.eq.run();

    EXPECT_EQ(rig.ran, plain.ran);
    // restore() rewinds the executed count with the rest of the state.
    EXPECT_EQ(rig.eq.executed(), plain.eq.executed());
    EXPECT_TRUE(rig.eq.empty());
}

/**
 * Regression for the choice-mode runUntil bug: runUntil must consult
 * nextTick() (which scans the flat candidate vector in choice mode),
 * not the wheel's internal frontier — stopping exactly at the limit
 * with the remaining events intact.
 */
TEST(TimingWheel, RunUntilRespectsLimitInChoiceMode)
{
    EventQueue eq;
    CanonicalChoice canon;
    eq.setChooser(&canon);
    int before = 0;
    int after = 0;
    for (Tick t = 10; t <= 100; t += 10)
        eq.scheduleAt(t, [&before] { ++before; });
    for (Tick t = 510; t <= 600; t += 10)
        eq.scheduleAt(t, [&after] { ++after; });
    eq.runUntil(250);
    EXPECT_EQ(before, 10);
    EXPECT_EQ(after, 0);
    EXPECT_EQ(eq.pending(), 10u);
    eq.runUntil(1000);
    EXPECT_EQ(after, 10);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace cni
