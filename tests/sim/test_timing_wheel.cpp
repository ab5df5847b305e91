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
 * they run — and check that nextTick() tracks the frontier exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <utility>
#include <vector>

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

} // namespace
} // namespace cni
