/**
 * @file
 * MOESI cache unit tests: state transitions, hit/miss timing, victim
 * writebacks, upgrades, claims, snarfing, and ownership transfer.
 */

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace cni
{
namespace
{

using test::TwoCacheRig;

constexpr Addr kA = kMemBase + 0x1000;
constexpr Addr kB = kMemBase + 0x2000;

TEST(CacheMoesi, ColdLoadInstallsExclusive)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Exclusive);
    EXPECT_EQ(rig.a.stats().counter("load_misses"), 1u);
}

TEST(CacheMoesi, SecondLoaderGetsSharedAndDowngradesExclusive)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA);
        co_await r.b.load(kA);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Shared);
    EXPECT_EQ(rig.b.stateOf(kA), Moesi::Shared);
}

TEST(CacheMoesi, StoreOnColdLineInstallsModified)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.store(kA);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Modified);
}

TEST(CacheMoesi, SilentExclusiveToModified)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA); // E
        co_await r.a.store(kA);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Modified);
    // The E->M transition is silent: no upgrade transaction.
    EXPECT_EQ(rig.a.stats().counter("store_upgrades"), 0u);
}

TEST(CacheMoesi, StoreToSharedIssuesUpgradeAndInvalidatesPeer)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA);
        co_await r.b.load(kA); // both Shared
        co_await r.a.store(kA);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Modified);
    EXPECT_EQ(rig.b.stateOf(kA), Moesi::Invalid);
    EXPECT_EQ(rig.a.stats().counter("store_upgrades"), 1u);
    EXPECT_EQ(rig.fabric.membus().stats().counter("txn_Upgrade"), 1u);
}

TEST(CacheMoesi, SnoopedReadOfModifiedSuppliesAndGoesOwned)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.store(kA); // M in a
        co_await r.b.load(kA);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Owned);
    EXPECT_EQ(rig.b.stateOf(kA), Moesi::Shared);
    EXPECT_EQ(rig.a.stats().counter("snoop_supplies"), 1u);
}

TEST(CacheMoesi, ReadExclusiveInvalidatesOwner)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.store(kA); // M in a
        co_await r.b.store(kA); // read-exclusive: a supplies + invalid
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Invalid);
    EXPECT_EQ(rig.b.stateOf(kA), Moesi::Modified);
}

TEST(CacheMoesi, ConflictEvictionWritesBackDirtyVictim)
{
    TwoCacheRig rig; // 64-line caches: kA and kA + 64*64 conflict
    const Addr conflicting = kA + 64 * kBlockBytes;
    rig.run([conflicting](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.store(kA);
        co_await r.a.load(conflicting);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Invalid);
    EXPECT_EQ(rig.a.stats().counter("writebacks"), 1u);
    EXPECT_EQ(rig.fabric.membus().stats().counter("txn_Writeback"), 1u);
}

TEST(CacheMoesi, CleanVictimEvictsSilently)
{
    TwoCacheRig rig;
    const Addr conflicting = kA + 64 * kBlockBytes;
    rig.run([conflicting](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA); // E (clean)
        co_await r.a.load(conflicting);
    }(rig));
    EXPECT_EQ(rig.a.stats().counter("writebacks"), 0u);
}

TEST(CacheTiming, HitCostsOneCycleMissCostsBusOccupancy)
{
    TwoCacheRig rig;
    Tick missDone = 0, hitDone = 0;
    rig.run([&](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA);
        missDone = r.eq.now();
        co_await r.a.load(kA);
        hitDone = r.eq.now();
    }(rig));
    EXPECT_EQ(missDone, 42u); // memory-to-cache transfer
    EXPECT_EQ(hitDone, 43u);  // one-cycle hit
}

TEST(CacheClaim, ClaimIsAddressOnlyAndInstallsModified)
{
    TwoCacheRig rig;
    Tick done = 0;
    rig.run([&](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.claimBlock(kA);
        done = r.eq.now();
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Modified);
    EXPECT_EQ(done, 12u); // address-only invalidation, not a data fetch
}

TEST(CacheClaim, ClaimInvalidatesRemoteCopies)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.b.store(kA);
        co_await r.a.claimBlock(kA);
    }(rig));
    EXPECT_EQ(rig.b.stateOf(kA), Moesi::Invalid);
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Modified);
}

TEST(CacheClaim, DeferredWritebackStillReachesTheBus)
{
    TwoCacheRig rig;
    const Addr conflicting = kA + 64 * kBlockBytes;
    rig.run([conflicting](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.store(kA); // dirty victim
        co_await r.a.claimBlock(conflicting, /*deferWriteback=*/true);
        co_await delay(r.eq, 200); // let the posted writeback drain
    }(rig));
    EXPECT_EQ(rig.fabric.membus().stats().counter("txn_Writeback"), 1u);
    EXPECT_EQ(rig.a.stateOf(conflicting), Moesi::Modified);
}

TEST(CacheSnarf, InvalidTagMatchGrabsWriteback)
{
    TwoCacheRig rig;
    rig.a.setSnarfing(true);
    const Addr conflicting = kA + 64 * kBlockBytes;
    rig.run([conflicting](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA);  // a caches kA
        co_await r.b.store(kA); // invalidates a (tag retained)
        // b evicts kA via a conflicting store -> writeback on the bus.
        co_await r.b.store(conflicting);
        co_await delay(r.eq, 100);
    }(rig));
    EXPECT_EQ(rig.a.stats().counter("snarfs"), 1u);
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Shared);
}

TEST(CacheSnarf, NoSnarfWithoutTagMatch)
{
    TwoCacheRig rig;
    rig.a.setSnarfing(true);
    const Addr conflicting = kA + 64 * kBlockBytes;
    rig.run([conflicting](TwoCacheRig &r) -> CoTask<void> {
        co_await r.b.store(kA); // a never cached kA
        co_await r.b.store(conflicting);
        co_await delay(r.eq, 100);
    }(rig));
    EXPECT_EQ(rig.a.stats().counter("snarfs"), 0u);
}

TEST(CacheOwnershipTransfer, SupplierHandsOverDirtyOwnership)
{
    TwoCacheRig rig;
    rig.a.setTransferOwnership(true);
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.store(kA); // M in a
        co_await r.b.load(kA);  // a supplies and hands over ownership
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Shared);
    EXPECT_EQ(rig.b.stateOf(kA), Moesi::Owned);
}

TEST(CacheOwnershipTransfer, TransferredOwnerEvictionWritesBack)
{
    TwoCacheRig rig;
    rig.a.setTransferOwnership(true);
    const Addr conflicting = kA + 64 * kBlockBytes;
    rig.run([conflicting](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.store(kA);
        co_await r.b.load(kA); // b now Owned (dirty)
        co_await r.b.load(conflicting); // evicts: must write back
    }(rig));
    EXPECT_EQ(rig.b.stats().counter("writebacks"), 1u);
}

TEST(CacheFetchAndFlush, FlushWritesBackDirtyAndInvalidates)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.store(kA);
        co_await r.a.flushBlock(kA);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Invalid);
    EXPECT_EQ(rig.a.stats().counter("flush_writebacks"), 1u);
}

TEST(CacheFetchAndFlush, FlushOfCleanLineIsSilent)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA);
        co_await r.a.flushBlock(kA);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Invalid);
    EXPECT_EQ(rig.a.stats().counter("flush_writebacks"), 0u);
    EXPECT_EQ(rig.fabric.membus().stats().counter("txn_Writeback"), 0u);
}

TEST(CacheFetchAndFlush, FetchBlockExclusiveUpgrades)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        co_await r.a.load(kA);
        co_await r.b.load(kA); // both Shared
        co_await r.a.fetchBlock(kA, true);
    }(rig));
    EXPECT_EQ(rig.a.stateOf(kA), Moesi::Modified);
    EXPECT_EQ(rig.b.stateOf(kA), Moesi::Invalid);
}

TEST(CacheProperty, ManyBlocksNeverConfuseLines)
{
    TwoCacheRig rig;
    rig.run([](TwoCacheRig &r) -> CoTask<void> {
        for (int i = 0; i < 64; ++i)
            co_await r.a.store(kMemBase + Addr(i) * kBlockBytes);
    }(rig));
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(rig.a.stateOf(kMemBase + Addr(i) * kBlockBytes),
                  Moesi::Modified);
    }
}

/** Property sweep: a random op mix keeps the two caches coherent. */
class CacheRandomOps : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheRandomOps, SingleWriterInvariantHolds)
{
    TwoCacheRig rig;
    const int seed = GetParam();
    rig.run([seed](TwoCacheRig &r) -> CoTask<void> {
        std::uint64_t state = static_cast<std::uint64_t>(seed) * 0x9e37 + 1;
        auto rnd = [&state] {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            return state >> 33;
        };
        for (int i = 0; i < 200; ++i) {
            Cache &c = (rnd() % 2) ? r.a : r.b;
            const Addr a = kMemBase + (rnd() % 8) * kBlockBytes;
            if (rnd() % 2)
                co_await c.store(a);
            else
                co_await c.load(a);
            // Invariant: never two writable copies of one block.
            for (int blk = 0; blk < 8; ++blk) {
                const Addr chk = kMemBase + Addr(blk) * kBlockBytes;
                const bool aw = isWritable(r.a.stateOf(chk));
                const bool bw = isWritable(r.b.stateOf(chk));
                if (aw && bw)
                    co_return; // reported below
            }
        }
    }(rig));
    for (int blk = 0; blk < 8; ++blk) {
        const Addr chk = kMemBase + Addr(blk) * kBlockBytes;
        EXPECT_FALSE(isWritable(rig.a.stateOf(chk)) &&
                     isWritable(rig.b.stateOf(chk)))
            << "two writers for block " << blk;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheRandomOps,
                         ::testing::Range(1, 11));

} // namespace
} // namespace cni
