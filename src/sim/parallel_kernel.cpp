#include "sim/parallel_kernel.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace cni
{

namespace
{

/**
 * Cap the worker pool at what the host can actually run. Oversubscribing
 * a window barrier is pure loss: every extra thread is a condition-variable
 * sleep/wake pair per window with no parallel work to show for it, and the
 * windows are short. Results are unaffected — the canonical barrier merge
 * makes every thread count produce identical output — so this only changes
 * wall-clock time.
 */
int
hostThreadCap()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

} // namespace

ParallelKernel::ParallelKernel(int numShards, int threads)
    : outbox_(numShards), stalled_(numShards, 0),
      threads_(std::max(
          1, std::min({threads, numShards, hostThreadCap()})))
{
    cni_assert(numShards >= 1);
    queues_.reserve(numShards);
    for (int i = 0; i < numShards; ++i)
        queues_.push_back(std::make_unique<EventQueue>());
}

ParallelKernel::~ParallelKernel()
{
    if (!workers_.empty()) {
        {
            CniLockGuard lk(mu_);
            stop_ = true;
        }
        cvStart_.notifyAll();
        for (auto &w : workers_)
            w.join();
    }
}

void
ParallelKernel::setLookahead(Tick l)
{
    cni_assert(l >= 1);
    lookahead_ = l;
}

EventQueue &
ParallelKernel::shardQueue(int shard)
{
    cni_assert(shard >= 0 && shard < numShards());
    return *queues_[shard];
}

Tick
ParallelKernel::shardNow(int shard) const
{
    cni_assert(shard >= 0 && shard < numShards());
    return queues_[shard]->now();
}

void
ParallelKernel::postBarrier(int fromShard, BarrierFn fn)
{
    cni_assert(fromShard >= 0 && fromShard < numShards());
    // Only the worker currently executing `fromShard` (or the
    // coordinator between windows) appends here, so no lock is needed;
    // the barrier synchronization publishes the entries.
    outbox_[fromShard].push_back(
        Post{queues_[fromShard]->now(), std::move(fn)});
}

Tick
ParallelKernel::minNextTick() const
{
    Tick next = EventQueue::kNoEvent;
    for (const auto &q : queues_)
        next = std::min(next, q->nextTick());
    return next;
}

bool
ParallelKernel::outboxesEmpty() const
{
    for (const auto &o : outbox_) {
        if (!o.empty())
            return false;
    }
    return true;
}

Tick
ParallelKernel::now() const
{
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->now());
    return t;
}

std::uint64_t
ParallelKernel::shardExecuted(int shard) const
{
    cni_assert(shard >= 0 && shard < numShards());
    return queues_[shard]->executed();
}

std::uint64_t
ParallelKernel::shardStalledWindows(int shard) const
{
    cni_assert(shard >= 0 && shard < numShards());
    serial_.assertHeld(); // stats are only meaningful between windows
    return stalled_[shard];
}

void
ParallelKernel::stepWindow(Tick wStart)
{
    const Tick wEnd = wStart + lookahead_;
    ++windows_;
    executeWindow(wEnd);
    drainBarrier(wEnd);
    globalTime_ = wEnd;
}

Tick
ParallelKernel::run(const std::function<bool()> &done,
                    const std::string &label)
{
    // The calling thread IS the coordinator for the whole run: it holds
    // the serial-phase capability, workers never touch serial state.
    RoleGuard serial(serial_);
    for (;;) {
        // Posts buffered outside a window (e.g. during machine
        // construction) merge before the next window starts.
        if (!outboxesEmpty())
            drainBarrier(globalTime_);
        if (done())
            break;
        const Tick next = minNextTick();
        if (next == EventQueue::kNoEvent) {
            cni_fatal("workload deadlocked under the sharded kernel: "
                      "every shard queue drained with tasks pending (%s)",
                      label.c_str());
        }
        stepWindow(std::max(globalTime_, next));
    }
    return now();
}

Tick
ParallelKernel::runUntil(Tick limit, const std::function<bool()> &done)
{
    RoleGuard serial(serial_);
    for (;;) {
        if (!outboxesEmpty())
            drainBarrier(globalTime_);
        if (done())
            break;
        const Tick next = minNextTick();
        if (next == EventQueue::kNoEvent)
            break;
        const Tick wStart = std::max(globalTime_, next);
        if (wStart >= limit)
            break;
        stepWindow(wStart);
    }
    return now();
}

void
ParallelKernel::executeWindow(Tick wEnd)
{
    // A shard with no event before wEnd cannot acquire one during the
    // window (cross-shard effects only land at barriers), so it is
    // skipped outright.
    active_.clear();
    for (int s = 0; s < numShards(); ++s) {
        if (queues_[s]->nextTick() < wEnd)
            active_.push_back(s);
    }
    if (active_.empty())
        return;
    if (active_.size() < std::size_t(numShards())) {
        for (int s = 0; s < numShards(); ++s) {
            if (queues_[s]->nextTick() >= wEnd)
                ++stalled_[s];
        }
    }

    if (threads_ <= 1 || active_.size() == 1) {
        for (int s : active_)
            queues_[s]->runUntil(wEnd - 1);
        return;
    }

    startPool();
    {
        CniLockGuard lk(mu_);
        windowEnd_ = wEnd;
        cursor_.store(0, std::memory_order_relaxed);
        pendingWorkers_ = int(workers_.size());
        ++generation_;
    }
    cvStart_.notifyAll();
    {
        CniLockGuard lk(mu_);
        while (pendingWorkers_ != 0)
            cvDone_.wait(mu_);
    }
}

void
ParallelKernel::startPool()
{
    if (!workers_.empty())
        return;
    workers_.reserve(threads_);
    for (int i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ParallelKernel::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        Tick wEnd;
        {
            CniLockGuard lk(mu_);
            while (!stop_ && generation_ == seen)
                cvStart_.wait(mu_);
            if (stop_)
                return;
            seen = generation_;
            wEnd = windowEnd_;
        }
        // Claim shards until the window's work list is exhausted. Each
        // shard is claimed exactly once, so shard state needs no locks.
        for (;;) {
            const std::size_t i =
                cursor_.fetch_add(1, std::memory_order_relaxed);
            if (i >= active_.size())
                break;
            queues_[active_[i]]->runUntil(wEnd - 1);
        }
        CniLockGuard lk(mu_);
        if (--pendingWorkers_ == 0)
            cvDone_.notifyOne();
    }
}

void
ParallelKernel::drainBarrier(Tick wEnd)
{
    // Canonical merge: ascending post tick, posting shard id, per-shard
    // post order. Entries are collected shard-by-shard (each shard's
    // outbox is already in post order with non-decreasing ticks), so a
    // stable sort by tick yields exactly that order — independent of
    // how many host threads executed the window.
    // Reused scratch buffer: one barrier per window is the kernel's hot
    // loop, so the merge must not churn the heap.
    std::vector<Post> &merged = mergeScratch_;
    merged.clear();
    for (auto &box : outbox_) {
        // Move the entries out before running any of them: a barrier
        // function that posts again must land in a fresh outbox (drained
        // at the next barrier), not invalidate this merge mid-walk.
        merged.insert(merged.end(), std::move_iterator(box.begin()),
                      std::move_iterator(box.end()));
        box.clear();
    }
    if (merged.empty())
        return;
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Post &a, const Post &b) {
                         return a.tick < b.tick;
                     });
    for (auto &p : merged) {
        p.fn(wEnd);
        ++posts_;
    }
    merged.clear(); // release the executed closures, keep the capacity
}

} // namespace cni
