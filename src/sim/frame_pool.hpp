/**
 * @file
 * Per-thread recycling pool for coroutine frames.
 *
 * Every CoTask call allocates a frame, and the message layer, the NI
 * drivers and the miss path run several per simulated operation. Fed
 * straight to malloc, those frames were about 0.8 heap allocations per
 * kernel event and a tenth of a macrobenchmark's host time. The pool
 * keeps released frames on per-thread free lists, one list per 64-byte
 * size class up to kMaxPooled bytes, so a steady-state simulation
 * allocates nothing: a frame is one pop, a released frame one push.
 * Larger frames go to the heap.
 *
 * The thread-local state is constant-initialised and trivially
 * destructible, so the hot path pays no TLS init-guard call. The first
 * slow-path call on a thread arms a thread-exit reaper that frees the
 * thread's lists; a frame released after it ran goes to the heap. A
 * frame released on another thread than the one that made it (sharded
 * kernel shards, TaskGroup teardown on the coordinator) joins the
 * releasing thread's list, so one thread can receive more frames than
 * it ever asks for again. The lists therefore hold at most kMaxBlocks
 * blocks per thread; a release past that goes to the heap.
 *
 * The first slow-path call in the process also sets the heap-trim
 * policy (see frame_pool.cpp): once frames stop cycling through malloc,
 * a Machine's teardown frees one contiguous region at the top of the
 * heap, which glibc would hand back to the kernel and the next build
 * would fault in again.
 *
 * Under AddressSanitizer the pool is compiled out and every frame comes
 * from the heap, so a use-after-free of a frame is still caught. The
 * pool stays under ThreadSanitizer, which sees the frames' hand-offs.
 */

#ifndef CNI_SIM_FRAME_POOL_HPP
#define CNI_SIM_FRAME_POOL_HPP

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define CNI_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CNI_FRAME_POOL_ASAN 1
#endif
#endif

namespace cni::frame_pool
{

#ifdef CNI_FRAME_POOL_ASAN
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif
inline constexpr std::size_t kClassBytes = 64;
inline constexpr std::size_t kMaxPooled = 2048;
inline constexpr std::size_t kClasses = kMaxPooled / kClassBytes;
/**
 * Per-thread budget, in blocks. Tearing down a 1024-node sharded mesh
 * machine driven by one thread releases about 14,500 frames (3.4 MiB),
 * and all of them must fit for its next build to allocate nothing.
 */
inline constexpr std::size_t kMaxBlocks = 32768;

/** A free frame block, linked through its first word. */
struct Block
{
    Block *next;
};

/**
 * One thread's free lists. `room` comes first, in the cache line of the
 * small classes' heads that most pops and pushes already touch.
 */
struct Lists
{
    std::size_t room; //!< blocks the lists may still take; 0 unless armed
    Block *head[kClasses];
    bool armed;  //!< the reaper is registered and has not run
    bool reaped; //!< the reaper ran: release to the heap from now on
};

inline constinit thread_local Lists tLists{};

/** List index of a pooled size, 1..kMaxPooled bytes. */
constexpr std::size_t
sizeClass(std::size_t bytes)
{
    return (bytes - 1) / kClassBytes;
}

/** Size of every block on list `c`, whatever size it was asked for. */
constexpr std::size_t
classBytes(std::size_t c)
{
    return (c + 1) * kClassBytes;
}

void *allocateSlow(std::size_t bytes);
void releaseSlow(void *p, std::size_t bytes) noexcept;

inline void *
allocate(std::size_t bytes)
{
    if constexpr (kEnabled) {
        if (bytes <= kMaxPooled) {
            Block *&head = tLists.head[sizeClass(bytes)];
            if (Block *b = head) {
                head = b->next;
                ++tLists.room;
                return b;
            }
        }
        return allocateSlow(bytes);
    } else {
        return ::operator new(bytes);
    }
}

inline void
release(void *p, std::size_t bytes) noexcept
{
    if constexpr (kEnabled) {
        if (bytes <= kMaxPooled && tLists.room != 0) {
            Block *&head = tLists.head[sizeClass(bytes)];
            head = ::new (p) Block{head};
            --tLists.room;
            return;
        }
        releaseSlow(p, bytes);
    } else {
        ::operator delete(p, bytes);
    }
}

} // namespace cni::frame_pool

#endif // CNI_SIM_FRAME_POOL_HPP
