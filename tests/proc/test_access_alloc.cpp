/**
 * @file
 * Heap-allocation budget of the simulated access path.
 *
 * A cache hit is the commonest thing a simulated processor does, so its
 * host cost must not include the allocator: a hit through Proc's word
 * accessors or Cache::load/store starts no coroutine and schedules one
 * event into an already warm slab. A bus transaction issued through a
 * cache miss, Proc::uncachedLoad or NetIface::devTxn hands the domain a
 * completion std::function stores inline, so it allocates only the
 * coroutine frames the issuing code itself runs.
 *
 * The binary replaces the global operator new with a counting one, so
 * it skips itself under ASan and TSan, which interpose the allocator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bus/address_map.hpp"
#include "bus/fabric.hpp"
#include "mem/main_memory.hpp"
#include "mem/node_memory.hpp"
#include "net/network.hpp"
#include "ni/net_iface.hpp"
#include "proc/proc.hpp"
#include "sim/task.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CNI_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CNI_ALLOC_SANITIZED 1
#endif
#endif

namespace
{
// Calls of the global operator new. The simulation is single-threaded
// here; no other thread allocates while a count is taken.
std::uint64_t gNews = 0;
} // namespace

#ifdef CNI_ALLOC_SANITIZED
#define SKIP_IF_SANITIZED()                                                  \
    GTEST_SKIP() << "the sanitizer owns operator new"
#else
#define SKIP_IF_SANITIZED() (void)0

void *
operator new(std::size_t n)
{
    ++gNews;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif

namespace cni
{
namespace
{

/** Minimal device: only devTxn is exercised. */
class ProbeNi : public NetIface
{
  public:
    using NetIface::NetIface;

    CoTask<bool> trySend(Proc &, NetMsg, int) override { co_return false; }
    CoTask<bool> tryRecv(Proc &, NetMsg &, int) override { co_return false; }
    const std::string &modelName() const override { return name_; }
    SnoopReply onBusTxn(const BusTxn &) override { return {}; }
    bool netDeliver(const NetMsg &) override { return false; }

    TxnAwaiter txn(TxnKind kind, Addr a) { return devTxn(kind, a); }

  protected:
    CoTask<bool> engineStep() override { co_return false; }
};

/** One snooping node: processor, memory, NI, on the memory bus. */
struct NodeRig
{
    EventQueue eq;
    NetParams params;
    std::unique_ptr<Interconnect> net =
        NetRegistry::instance().make("ideal", eq, 1, params);
    NodeFabric fabric{eq, "node0", NiPlacement::MemoryBus};
    MainMemory memory;
    NodeMemory image;
    Proc proc{eq, 0, fabric, image, "node0.proc"};
    ProbeNi ni{eq, 0, fabric, *net, image, "node0.ni"};

    NodeRig()
    {
        fabric.attachHome(&memory);
        ni.attachToBus();
    }

    void
    run(CoTask<void> task)
    {
        TaskGroup group(eq);
        group.spawn(std::move(task));
        eq.runUntilDone([&group] { return group.done(); });
        ASSERT_TRUE(group.done());
    }

    std::uint64_t
    busTxns()
    {
        return fabric.membus().stats().counter("txns");
    }
};

constexpr int kRounds = 64;
constexpr Addr kWord = kMemBase + 0x1000;
/** Shares kWord's direct-mapped frame in the processor cache. */
constexpr Addr kConflict = kWord + kProcCacheBlocks * kBlockBytes;

/**
 * `allocs` over kRounds rounds is `perRound` coroutine frames each:
 * exact under GCC, which never elides a coroutine frame; clang may fold
 * a callee's frame into its caller's (heap elision), so there the count
 * is an upper bound.
 */
void
expectFrames(std::uint64_t allocs, int perRound)
{
#ifdef __clang__
    EXPECT_LE(allocs, std::uint64_t(perRound * kRounds));
#else
    EXPECT_EQ(allocs, std::uint64_t(perRound * kRounds));
#endif
}

TEST(AccessAlloc, CacheHitsAllocateNothing)
{
    SKIP_IF_SANITIZED();
    NodeRig rig;
    std::uint64_t allocs = ~std::uint64_t{0};
    Tick elapsed = 0;
    rig.run([](Proc &p, std::uint64_t &allocs,
               Tick &elapsed) -> CoTask<void> {
        // The miss installs the line Modified; the first pass is the
        // warm-up (counters bind, the event slab sizes itself).
        co_await p.write64(kWord, 1);
        for (int pass = 0; pass < 2; ++pass) {
            const std::uint64_t before = gNews;
            const Tick start = p.eq().now();
            for (int i = 0; i < kRounds; ++i) {
                const std::uint64_t v = co_await p.read64(kWord);
                co_await p.write64(kWord, v + 1);
                const std::uint32_t w = co_await p.read32(kWord);
                co_await p.write32(kWord, w);
                co_await p.cache().load(kWord);
                co_await p.cache().store(kWord);
            }
            allocs = gNews - before;
            elapsed = p.eq().now() - start;
        }
    }(rig.proc, allocs, elapsed));
    EXPECT_EQ(allocs, 0u);
    // Six one-cycle hits per round, and the data moved.
    EXPECT_EQ(elapsed, Tick(6 * kRounds * kCacheHitCycles));
    EXPECT_EQ(rig.image.read64(kWord), std::uint64_t(1 + 2 * kRounds));
    const StatSet &cs = rig.proc.cache().stats();
    EXPECT_EQ(cs.counter("load_hits"), std::uint64_t(2 * 3 * kRounds));
    EXPECT_EQ(cs.counter("store_hits"), std::uint64_t(2 * 3 * kRounds));
}

// Each test below takes its count on the second of two identical passes
// (the first warms up). The counts are the coroutine frames the issuing
// code runs; a bus transaction adds nothing of its own (no starter
// closure, no completion re-wrapped in another std::function).

TEST(AccessAlloc, CacheMissTransactionAllocatesOnlyItsTwoFrames)
{
    SKIP_IF_SANITIZED();
    NodeRig rig;
    std::uint64_t allocs = 0;
    std::uint64_t txns = 0;
    rig.run([](NodeRig &r, std::uint64_t &allocs,
               std::uint64_t &txns) -> CoTask<void> {
        for (int pass = 0; pass < 2; ++pass) {
            const std::uint64_t before = gNews;
            const std::uint64_t txnsBefore = r.busTxns();
            for (int i = 0; i < kRounds; ++i) {
                const Addr a = i % 2 == 0 ? kWord : kConflict;
                co_await r.proc.cache().load(a);
            }
            allocs = gNews - before;
            txns = r.busTxns() - txnsBefore;
        }
    }(rig, allocs, txns));
    // Each load evicts the other block's clean line: one ReadShared.
    EXPECT_EQ(txns, std::uint64_t(kRounds));
    // Cache's slow path and refill coroutines.
    expectFrames(allocs, 2);
}

TEST(AccessAlloc, UncachedLoadAllocatesOnlyItsTwoFrames)
{
    SKIP_IF_SANITIZED();
    NodeRig rig;
    std::uint64_t allocs = 0;
    std::uint64_t txns = 0;
    rig.run([](NodeRig &r, std::uint64_t &allocs,
               std::uint64_t &txns) -> CoTask<void> {
        for (int pass = 0; pass < 2; ++pass) {
            const std::uint64_t before = gNews;
            const std::uint64_t txnsBefore = r.busTxns();
            for (int i = 0; i < kRounds; ++i)
                co_await r.proc.uncachedLoad(kDevRegBase);
            allocs = gNews - before;
            txns = r.busTxns() - txnsBefore;
        }
    }(rig, allocs, txns));
    EXPECT_EQ(txns, std::uint64_t(kRounds));
    // uncachedLoad's own frame and its StoreBuffer::drain.
    expectFrames(allocs, 2);
}

TEST(AccessAlloc, DeviceTransactionAllocatesNothing)
{
    SKIP_IF_SANITIZED();
    NodeRig rig;
    std::uint64_t allocs = ~std::uint64_t{0};
    std::uint64_t txns = 0;
    rig.run([](NodeRig &r, std::uint64_t &allocs,
               std::uint64_t &txns) -> CoTask<void> {
        for (int pass = 0; pass < 2; ++pass) {
            const std::uint64_t before = gNews;
            const std::uint64_t txnsBefore = r.busTxns();
            for (int i = 0; i < kRounds; ++i)
                co_await r.ni.txn(TxnKind::ReadShared, kWord);
            allocs = gNews - before;
            txns = r.busTxns() - txnsBefore;
        }
    }(rig, allocs, txns));
    EXPECT_EQ(txns, std::uint64_t(kRounds));
    EXPECT_EQ(allocs, 0u);
}

} // namespace
} // namespace cni
