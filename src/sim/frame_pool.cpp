#include "sim/frame_pool.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace cni::frame_pool
{

namespace
{

/**
 * Heap-trim policy. With frames recycled here, a Machine's teardown
 * frees its components as one contiguous region at the top of the
 * heap. glibc returns such a region to the kernel once it exceeds
 * M_TRIM_THRESHOLD (128 KiB by default), and the next Machine build
 * page-faults it back in: about 600 minor faults over 20 builds of the
 * macrobenchmark's four 16-node machines, against 0-3 with frames on
 * the heap. Keeping up to kTrimBytes free at the top avoids the round
 * trip (test_machine's RebuildsReuseTheHeap).
 *
 * Setting M_TRIM_THRESHOLD also freezes glibc's dynamic mmap threshold
 * at 128 KiB, so a larger block is mapped afresh on every build rather
 * than served from the heap after the first one is freed. A 1024-node
 * mesh machine, which allocates such blocks, builds no slower for it.
 */
constexpr int kTrimBytes = 32 << 20;

void
setTrimPolicy()
{
#if defined(__GLIBC__)
    static const bool once = [] {
        mallopt(M_TRIM_THRESHOLD, kTrimBytes);
        return true;
    }();
    (void)once;
#endif
}

void
reap() noexcept
{
    for (std::size_t c = 0; c < kClasses; ++c) {
        while (Block *b = tLists.head[c]) {
            tLists.head[c] = b->next;
            ::operator delete(b, classBytes(c));
        }
    }
    tLists.room = 0;
    tLists.armed = false;
    tLists.reaped = true;
}

struct Reaper
{
    Reaper() = default;
    Reaper(const Reaper &) = delete;
    Reaper &operator=(const Reaper &) = delete;
    ~Reaper() { reap(); }
};

/** Register this thread's reaper; false once it has run. */
bool
arm()
{
    if (tLists.armed)
        return true;
    if (tLists.reaped)
        return false;
    setTrimPolicy();
    // A block-scope thread_local is built, and its destructor queued
    // for thread exit, when control first passes here on each thread.
    thread_local Reaper reaper;
    tLists.room = kMaxBlocks;
    tLists.armed = true;
    return true;
}

} // namespace

// A pooled-size block has its class's full size even when it comes
// from the heap after the reaper ran, so any thread can pool or free it.
void *
allocateSlow(std::size_t bytes)
{
    if (bytes > kMaxPooled)
        return ::operator new(bytes);
    arm();
    return ::operator new(classBytes(sizeClass(bytes)));
}

void
releaseSlow(void *p, std::size_t bytes) noexcept
{
    if (bytes > kMaxPooled) {
        ::operator delete(p, bytes);
        return;
    }
    const std::size_t c = sizeClass(bytes);
    if (!arm() || tLists.room == 0) {
        ::operator delete(p, classBytes(c));
        return;
    }
    tLists.head[c] = ::new (p) Block{tLists.head[c]};
    --tLists.room;
}

} // namespace cni::frame_pool
