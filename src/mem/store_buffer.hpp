/**
 * @file
 * Processor store buffer for uncached stores.
 *
 * Modern processors retire uncached stores into a store buffer and keep
 * executing (Section 2.1); the buffer drains to the bus in FIFO order. A
 * memory-barrier instruction stalls until the buffer is empty — this is
 * the expensive step in the CDR three-cycle reuse handshake.
 */

#ifndef CNI_MEM_STORE_BUFFER_HPP
#define CNI_MEM_STORE_BUFFER_HPP

#include <deque>
#include <string>

#include "bus/bus.hpp"
#include "coh/domain.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace cni
{

class StoreBuffer
{
  public:
    /** Drains into `coh` as processor-side uncached writes. */
    StoreBuffer(EventQueue &eq, std::string name, CoherenceDomain &coh,
                int depth = 8)
        : eq_(eq), name_(std::move(name)), coh_(coh),
          depth_(depth), room_(eq), empty_(eq), stats_(name_),
          cFullStalls_(stats_, "full_stalls"), cStores_(stats_, "stores"),
          cMembars_(stats_, "membars")
    {
    }

    /**
     * Retire an uncached store. Costs one issue cycle when the buffer has
     * room; stalls the processor until an entry frees otherwise.
     */
    CoTask<void>
    push(Addr addr, std::uint64_t data)
    {
        while (static_cast<int>(entries_.size()) >= depth_) {
            cFullStalls_.incr();
            co_await room_.wait();
        }
        entries_.push_back(Entry{addr, data});
        cStores_.incr();
        pump();
        co_await delay(eq_, 1);
    }

    /** Memory barrier: wait until every buffered store has reached the bus. */
    CoTask<void>
    drain()
    {
        cMembars_.incr();
        while (!entries_.empty() || draining_)
            co_await empty_.wait();
    }

    bool empty() const { return entries_.empty() && !draining_; }

    /** Count `n` drains of an empty buffer that were never run. */
    void chargeDrains(std::uint64_t n) { cMembars_.incr(n); }

    StatSet &stats() { return stats_; }

  private:
    struct Entry
    {
        Addr addr;
        std::uint64_t data;
    };

    void
    pump()
    {
        if (draining_ || entries_.empty())
            return;
        draining_ = true;
        Entry e = entries_.front();
        BusTxn txn;
        txn.kind = TxnKind::UncachedWrite;
        txn.addr = e.addr;
        txn.data = e.data;
        txn.initiator = Initiator::Processor;
        coh_.procIssue(txn, [this](const SnoopResult &) {
            entries_.pop_front();
            draining_ = false;
            room_.notifyAll();
            if (entries_.empty())
                empty_.notifyAll();
            else
                pump();
        });
    }

    EventQueue &eq_;
    std::string name_;
    CoherenceDomain &coh_;
    int depth_;
    std::deque<Entry> entries_;
    bool draining_ = false;
    WaitChannel room_;
    WaitChannel empty_;
    StatSet stats_;
    StatSet::Counter cFullStalls_;
    StatSet::Counter cStores_;
    StatSet::Counter cMembars_;
};

} // namespace cni

#endif // CNI_MEM_STORE_BUFFER_HPP
