#include "proc/proc.hpp"

namespace cni
{

Proc::Proc(EventQueue &eq, NodeId id, CoherenceDomain &coh, NodeMemory &mem,
           const std::string &name)
    : eq_(eq), id_(id), coh_(coh), mem_(mem), stats_(name),
      cUncachedLoads_(stats_, "uncached_loads"),
      cUncachedStores_(stats_, "uncached_stores"),
      cMembars_(stats_, "membars")
{
    cache_ = std::make_unique<Cache>(eq, name + ".cache", kProcCacheBlocks,
                                     Initiator::Processor);
    cache_->attach(coh, coh.attachCache(cache_.get()));
    stb_ = std::make_unique<StoreBuffer>(eq, name + ".stb", coh);
}

CoTask<void>
Proc::touch(Addr a, std::size_t n, bool isStore)
{
    // One access per 8-byte word; the cache charges one cycle per hit and
    // the full bus path per miss (first word of each missing block).
    const Addr end = a + n;
    for (Addr w = a & ~Addr{7}; w < end; w += 8) {
        if (isStore)
            co_await cache_->store(w);
        else
            co_await cache_->load(w);
    }
}

CoTask<void>
Proc::read(Addr a, void *dst, std::size_t n)
{
    co_await touch(a, n, false);
    mem_.read(a, dst, n);
}

CoTask<void>
Proc::write(Addr a, const void *src, std::size_t n)
{
    co_await touch(a, n, true);
    mem_.write(a, src, n);
}

CoTask<std::uint64_t>
Proc::uncachedLoad(Addr a)
{
    cUncachedLoads_.incr();
    // Device space is strongly ordered: an uncached load may not bypass
    // earlier uncached stores still sitting in the store buffer.
    co_await stb_->drain();
    BusTxn txn;
    txn.kind = TxnKind::UncachedRead;
    txn.addr = a;
    txn.initiator = Initiator::Processor;
    const SnoopResult res = co_await TxnAwaiter(coh_, txn);
    co_return res.data;
}

CoTask<void>
Proc::uncachedStore(Addr a, std::uint64_t v)
{
    cUncachedStores_.incr();
    co_await stb_->push(a, v);
}

CoTask<void>
Proc::membar()
{
    cMembars_.incr();
    co_await stb_->drain();
}

} // namespace cni
