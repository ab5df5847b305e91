/**
 * @file
 * Conservatively synchronized sharded simulation kernel.
 *
 * The machine is split into one shard per node (sharding by node, not by
 * host thread, keeps the canonical event order independent of --threads,
 * which is what makes multi-threaded runs bit-identical to
 * single-threaded ones). Each shard owns a plain EventQueue; a window
 * loop alternates between
 *
 *   1. a parallel phase: every shard with pending events in the current
 *      window [t, t + lookahead) runs them on the worker pool (shards
 *      never touch each other's state during this phase), and
 *   2. a serial barrier phase: all cross-shard posts buffered during the
 *      window (fabric injections, delivery acknowledgments) execute in
 *      the canonical (post tick, posting shard, per-shard sequence)
 *      order and schedule future events into the target shards.
 *
 * The window width (lookahead) is the fabric's minimum cross-node
 * latency (Interconnect::minLatency()): nodes only interact through
 * fabric messages, so no event inside a window can affect another shard
 * within the same window. Empty stretches of simulated time are skipped
 * by starting the next window at the earliest pending event tick.
 *
 * With threads == 1 the window loop runs entirely on the calling thread
 * (no pool, no synchronization) but executes the *same* algorithm, so
 * `--threads 1` is the determinism anchor the CI matrix diffs against.
 *
 * Components that connect shards (the interconnect fabric) use three
 * calls: shardQueue, shardNow and postBarrier. The contract that makes
 * sharded execution both safe and bit-identical to a single-threaded
 * run:
 *
 *  - every shard owns one EventQueue and is executed by at most one host
 *    thread per time window;
 *  - a shard may touch another shard's state only by posting a barrier
 *    function from its own execution (postBarrier). Posts are buffered
 *    per shard and executed serially at the next window barrier in the
 *    canonical (post tick, posting shard, per-shard sequence) order —
 *    an order that does not depend on the host thread count;
 *  - a barrier function receives the barrier's window-end tick and must
 *    not schedule work earlier than it (the conservative lookahead rule:
 *    any cross-shard effect is at least Interconnect::minLatency() in
 *    the future, and the window width equals that lookahead).
 */

#ifndef CNI_SIM_PARALLEL_KERNEL_HPP
#define CNI_SIM_PARALLEL_KERNEL_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/types.hpp"

namespace cni
{

class ParallelKernel
{
  public:
    /**
     * Executed serially at the next window barrier; `windowEnd` is the
     * first tick of the next window — the earliest tick any scheduled
     * work may target. Small-buffer (sim/inline_fn.hpp): the fabric
     * posts one of these per injected message, and a NetMsg-capturing
     * closure must not heap-allocate.
     */
    using BarrierFn = InlineFn<void(Tick), kEventCallbackBytes>;

    /**
     * `numShards` shards (one per node), executed by up to `threads`
     * host worker threads (clamped to the shard count; 1 runs inline).
     */
    ParallelKernel(int numShards, int threads);
    ~ParallelKernel();

    ParallelKernel(const ParallelKernel &) = delete;
    ParallelKernel &operator=(const ParallelKernel &) = delete;

    /** Window width in ticks; must be >= 1 (the fabric's minLatency). */
    void setLookahead(Tick l);
    Tick lookahead() const { return lookahead_; }

    // Concurrency discipline, compiler-checked (see
    // sim/thread_annotations.hpp): `serial_` is the coordinator-phase
    // capability — window stepping, the barrier merge, and the counters
    // they maintain require it; run()/runUntil() hold it for their whole
    // duration, and the stats getters assert it (they are only
    // meaningful between windows). `mu_` guards the worker-pool
    // handshake state. Per-shard state (queues_, outbox_ entries,
    // active_) is partitioned by the claim protocol instead of a single
    // capability and stays unannotated.

    int numShards() const { return int(queues_.size()); }
    int threads() const { return threads_; }

    /** The event queue driving shard `shard`. */
    EventQueue &shardQueue(int shard);

    /** Current simulated time of shard `shard`. */
    Tick shardNow(int shard) const;

    /**
     * Buffer `fn` for the next window barrier. Must be called from
     * `fromShard`'s own execution (or from the coordinator between
     * windows); the kernel stamps the entry with the shard's current
     * tick and a per-shard sequence number for the canonical merge.
     */
    void postBarrier(int fromShard, BarrierFn fn);

    /**
     * Run windows until `done()` holds. Fatal (naming `label`) when
     * every queue drains and no barrier work is pending first — the
     * workload deadlocked.
     */
    Tick run(const std::function<bool()> &done, const std::string &label);

    /**
     * Run windows while the window start stays below `limit` and
     * `done()` is false (watchdog-style). May overshoot `limit` by at
     * most one lookahead window; never fatal.
     */
    Tick runUntil(Tick limit, const std::function<bool()> &done);

    /** Latest simulated tick reached by any shard. */
    Tick now() const;

    // Kernel statistics (all thread-count independent) ----------------------
    std::uint64_t windows() const
    {
        serial_.assertHeld();
        return windows_;
    }
    std::uint64_t barrierPosts() const
    {
        serial_.assertHeld();
        return posts_;
    }
    std::uint64_t shardExecuted(int shard) const;
    /** Windows in which this shard had no events while others ran. */
    std::uint64_t shardStalledWindows(int shard) const;

  private:
    struct Post
    {
        Tick tick;
        BarrierFn fn;
    };

    /** Earliest pending event tick across all shards (kNoEvent if none). */
    Tick minNextTick() const CNI_REQUIRES(serial_);
    bool outboxesEmpty() const CNI_REQUIRES(serial_);

    /** One window: parallel shard execution, then the serial barrier. */
    void stepWindow(Tick wStart) CNI_REQUIRES(serial_);
    void executeWindow(Tick wEnd) CNI_REQUIRES(serial_);
    void drainBarrier(Tick wEnd) CNI_REQUIRES(serial_);

    void startPool();
    void workerLoop();

    /** Coordinator-phase capability (no runtime state). */
    RoleCap serial_;

    // Per-shard state, partitioned by the window claim protocol: each
    // shard is claimed by exactly one worker per window, and outbox_
    // entries are appended only by the claiming worker (the barrier
    // handshake publishes them). Not expressible as one capability.
    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<std::vector<Post>> outbox_; //!< per-shard, append-only

    std::vector<Post> mergeScratch_
        CNI_GUARDED_BY(serial_); //!< barrier merge buffer, reused
    std::vector<std::uint64_t> stalled_ CNI_GUARDED_BY(serial_);
    Tick lookahead_ = 1; //!< configuration, set before any window runs
    Tick globalTime_ CNI_GUARDED_BY(serial_) = 0;
    std::uint64_t windows_ CNI_GUARDED_BY(serial_) = 0;
    std::uint64_t posts_ CNI_GUARDED_BY(serial_) = 0;

    // Worker pool (only materialized when threads_ > 1).
    int threads_;
    std::vector<int> active_; //!< shards with events in this window;
                              //!< written between windows, read-only
                              //!< inside one (published by the
                              //!< generation handshake under mu_)
    std::vector<std::thread> workers_;
    CniMutex mu_;
    CniCondVar cvStart_;
    CniCondVar cvDone_;
    std::uint64_t generation_ CNI_GUARDED_BY(mu_) = 0;
    int pendingWorkers_ CNI_GUARDED_BY(mu_) = 0;
    Tick windowEnd_ CNI_GUARDED_BY(mu_) = 0;
    std::atomic<std::size_t> cursor_{0};
    bool stop_ CNI_GUARDED_BY(mu_) = false;
};

} // namespace cni

#endif // CNI_SIM_PARALLEL_KERNEL_HPP
