/**
 * @file
 * The node processor model.
 *
 * A 200 MHz dual-issue in-order processor (ROSS HyperSPARC class). The
 * simulator does not interpret an ISA: workloads are coroutines that issue
 * timed memory operations through this class and charge computation as
 * explicit cycle delays. Cached accesses are charged one cycle per 8-byte
 * word on hits (dual issue overlaps address generation with the access)
 * plus the full bus cost on misses; uncached loads block; uncached stores
 * retire through the store buffer.
 */

#ifndef CNI_PROC_PROC_HPP
#define CNI_PROC_PROC_HPP

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "coh/domain.hpp"
#include "mem/cache.hpp"
#include "mem/node_memory.hpp"
#include "mem/store_buffer.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace cni
{

/** Processor cache capacity: 256 KB direct mapped (Section 4.1). */
constexpr std::size_t kProcCacheBlocks = (256 * 1024) / kBlockBytes;

/**
 * Awaitable cached word access (Proc::read64 and friends): a
 * Cache::Access, then `fin` — the node-memory read or write — as the
 * access completes. Like the Cache::Access it wraps, a hit starts no
 * coroutine.
 */
template <typename Fin>
class WordAccess
{
  public:
    WordAccess(Cache &c, Addr a, bool isStore, Fin fin)
        : acc_(c, a, isStore), fin_(std::move(fin))
    {
    }

    bool await_ready() { return acc_.await_ready(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> h)
    {
        return acc_.await_suspend(h);
    }

    auto
    await_resume()
    {
        acc_.await_resume();
        return fin_();
    }

  private:
    Cache::Access acc_;
    Fin fin_;
};

class Proc
{
  public:
    Proc(EventQueue &eq, NodeId id, CoherenceDomain &coh, NodeMemory &mem,
         const std::string &name);

    NodeId id() const { return id_; }
    EventQueue &eq() { return eq_; }
    Cache &cache() { return *cache_; }
    NodeMemory &mem() { return mem_; }
    StoreBuffer &storeBuffer() { return *stb_; }
    CoherenceDomain &coherence() { return coh_; }

    /** Charge `cycles` of computation. */
    DelayAwaiter delay(Tick cycles) { return DelayAwaiter(eq_, cycles); }

    /** Cached read of `n` bytes into `dst` (charged per 8-byte word). */
    CoTask<void> read(Addr a, void *dst, std::size_t n);

    /** Cached write of `n` bytes from `src` (charged per 8-byte word). */
    CoTask<void> write(Addr a, const void *src, std::size_t n);

    /** Cached 64-bit load/store convenience wrappers. */
    auto
    read64(Addr a)
    {
        return WordAccess(*cache_, a, false,
                          [this, a] { return mem_.read64(a); });
    }

    auto
    write64(Addr a, std::uint64_t v)
    {
        return WordAccess(*cache_, a, true,
                          [this, a, v] { mem_.write64(a, v); });
    }

    auto
    read32(Addr a)
    {
        return WordAccess(*cache_, a, false,
                          [this, a] { return mem_.read32(a); });
    }

    auto
    write32(Addr a, std::uint32_t v)
    {
        return WordAccess(*cache_, a, true,
                          [this, a, v] { mem_.write32(a, v); });
    }

    /**
     * Touch the cache for an access to [a, a+n) without moving data —
     * used when a workload reads/writes scratch state whose values the
     * simulation does not care about.
     */
    CoTask<void> touch(Addr a, std::size_t n, bool isStore);

    /** Uncached (device register) 8-byte load: blocks the processor. */
    CoTask<std::uint64_t> uncachedLoad(Addr a);

    /**
     * Count `n` uncached loads that were never issued (idle-poll
     * fast-forward), with the store-buffer drain each begins with. The
     * bus side is the bus's to count (SnoopBus::chargeUncachedReads).
     */
    void
    chargeUncachedLoads(std::uint64_t n)
    {
        cUncachedLoads_.incr(n);
        stb_->chargeDrains(n);
    }

    /** Uncached 8-byte store: retires through the store buffer. */
    CoTask<void> uncachedStore(Addr a, std::uint64_t v);

    /** Memory barrier: drain the store buffer. */
    CoTask<void> membar();

    StatSet &stats() { return stats_; }

  private:
    EventQueue &eq_;
    NodeId id_;
    CoherenceDomain &coh_;
    NodeMemory &mem_;
    std::unique_ptr<Cache> cache_;
    std::unique_ptr<StoreBuffer> stb_;
    StatSet stats_;
    StatSet::Counter cUncachedLoads_;
    StatSet::Counter cUncachedStores_;
    StatSet::Counter cMembars_;
};

} // namespace cni

#endif // CNI_PROC_PROC_HPP
