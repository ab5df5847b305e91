/**
 * @file
 * C++20 coroutine layer over the event queue.
 *
 * Simulated processors and devices are written as coroutines (CoTask<T>)
 * that co_await timing operations. Awaiting a CoTask chains continuations,
 * so a node program reads like straight-line code while the event queue
 * interleaves all nodes deterministically.
 *
 *   CoTask<void> program(Proc &p) {
 *       co_await p.delay(10);          // compute
 *       co_await p.cache().load(a);    // may suspend across a bus txn
 *   }
 *
 * Top-level coroutines are started with TaskGroup::spawn(); the group
 * counts live tasks so Machine::run() knows when the workload finished.
 */

#ifndef CNI_SIM_TASK_HPP
#define CNI_SIM_TASK_HPP

#include <atomic>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/logging.hpp"

namespace cni
{

template <typename T>
class CoTask;

namespace detail
{

struct PromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    /// Frames are recycled through the calling thread's frame pool.
    static void *
    operator new(std::size_t bytes)
    {
        return frame_pool::allocate(bytes);
    }

    static void
    operator delete(void *frame, std::size_t bytes) noexcept
    {
        frame_pool::release(frame, bytes);
    }

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            auto &p = h.promise();
            if (p.continuation)
                return p.continuation;
            return std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
};

} // namespace detail

/**
 * A lazy coroutine task. The coroutine body does not run until the task is
 * co_awaited (or started via TaskGroup::spawn). Single-consumer: a CoTask
 * may be awaited exactly once.
 */
template <typename T = void>
class [[nodiscard]] CoTask
{
  public:
    struct promise_type : detail::PromiseBase
    {
        std::optional<T> value;

        CoTask
        get_return_object()
        {
            return CoTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        template <typename U>
        void return_value(U &&v) { value.emplace(std::forward<U>(v)); }
    };

    CoTask() = default;
    CoTask(CoTask &&o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    CoTask &
    operator=(CoTask &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    ~CoTask() { destroy(); }

    bool valid() const { return handle_ != nullptr; }

    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> handle;

            bool await_ready() { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> caller)
            {
                handle.promise().continuation = caller;
                return handle;
            }

            T
            await_resume()
            {
                auto &p = handle.promise();
                if (p.exception)
                    std::rethrow_exception(p.exception);
                return std::move(*p.value);
            }
        };
        cni_assert(handle_);
        return Awaiter{handle_};
    }

  private:
    explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_;

    friend class TaskGroup;
};

/** Specialization for void-returning tasks. */
template <>
class [[nodiscard]] CoTask<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        CoTask
        get_return_object()
        {
            return CoTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        void return_void() {}
    };

    CoTask() = default;
    CoTask(CoTask &&o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    CoTask &
    operator=(CoTask &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    ~CoTask() { destroy(); }

    bool valid() const { return handle_ != nullptr; }

    /**
     * Kick off this task without awaiting it: runs until the first
     * suspension, with no continuation. The frame stays owned by this
     * CoTask — keep it alive while the task runs; destroying the CoTask
     * reclaims an unfinished (suspended) frame. For forever-looping
     * service coroutines (device engines) that must not outlive their
     * owner. Nothing ever rethrows a started task's stored exception,
     * so the coroutine body must catch (and panic on) its own errors.
     */
    void
    start()
    {
        cni_assert(handle_ && !handle_.done());
        handle_.resume();
    }

    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> handle;

            bool await_ready() { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> caller)
            {
                handle.promise().continuation = caller;
                return handle;
            }

            void
            await_resume()
            {
                if (handle.promise().exception)
                    std::rethrow_exception(handle.promise().exception);
            }
        };
        cni_assert(handle_);
        return Awaiter{handle_};
    }

  private:
    explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_;

    friend class TaskGroup;
};

/**
 * Awaitable that suspends the coroutine for a fixed number of ticks.
 * Models computation time or fixed hardware latencies.
 */
class DelayAwaiter
{
  public:
    DelayAwaiter(EventQueue &eq, Tick delta) : eq_(eq), delta_(delta) {}

    bool await_ready() const { return delta_ == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq_.scheduleIn(delta_, [h] { h.resume(); });
    }

    void await_resume() const {}

  private:
    EventQueue &eq_;
    Tick delta_;
};

inline DelayAwaiter
delay(EventQueue &eq, Tick delta)
{
    return DelayAwaiter(eq, delta);
}

/**
 * A simple condition-variable-like wakeup channel for coroutines within
 * the (single-threaded) simulation. A waiter suspends until some other
 * event calls notify(); spurious wakeups never happen, but the waited-for
 * condition should still be re-checked in a loop by convention.
 */
class WaitChannel
{
  public:
    explicit WaitChannel(EventQueue &eq) : eq_(eq) {}

    /** Awaitable: suspend until the next notify(). */
    auto
    wait()
    {
        struct Awaiter
        {
            WaitChannel &ch;
            bool await_ready() const { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                ch.waiters_.push_back(h);
            }
            void await_resume() const {}
        };
        return Awaiter{*this};
    }

    /**
     * Wake all current waiters (each resumed as a separate event).
     * Scheduling runs nothing synchronously, so no waiter joins
     * mid-loop, and clear() keeps the buffer for the next round.
     */
    void
    notifyAll()
    {
        for (auto h : waiters_)
            eq_.scheduleIn(0, [h] { h.resume(); });
        waiters_.clear();
    }

    bool hasWaiters() const { return !waiters_.empty(); }

  private:
    EventQueue &eq_;
    std::vector<std::coroutine_handle<>> waiters_;
};

/**
 * Tracks a set of top-level coroutines. spawn() starts a CoTask eagerly
 * and the group's live count reaches zero when all spawned tasks have
 * completed — the standard "did the workload finish" signal. The group
 * owns the tasks: destroying it reclaims every frame, including those of
 * tasks a budgeted run (Machine::runUntil) left suspended.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(EventQueue &eq) : eq_(eq) {}
    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    ~TaskGroup()
    {
        for (const std::coroutine_handle<> h : drivers_)
            h.destroy();
    }

    /** Start a top-level task. It runs until its first suspension. */
    void
    spawn(CoTask<void> task)
    {
        ++live_;
        drivers_.push_back(drive(std::move(task)).handle);
    }

    /** Number of spawned tasks that have not yet finished. */
    int live() const { return live_.load(std::memory_order_acquire); }

    bool done() const { return live() == 0; }

    EventQueue &eventQueue() { return eq_; }

  private:
    /// Driver coroutine: owns the task, decrements the live count at
    /// completion, and surfaces exceptions as panics (a workload
    /// coroutine throwing is a simulator bug, not a user error). It
    /// stops at its final suspend point; ~TaskGroup destroys it.
    struct Driver
    {
        struct promise_type
        {
            Driver
            get_return_object()
            {
                return {std::coroutine_handle<promise_type>::from_promise(
                    *this)};
            }
            std::suspend_never initial_suspend() noexcept { return {}; }
            std::suspend_always final_suspend() noexcept { return {}; }
            void return_void() {}
            void
            unhandled_exception()
            {
                cni_panic("unhandled exception escaped a spawned task");
            }
        };
        std::coroutine_handle<> handle;
    };

    Driver
    drive(CoTask<void> task)
    {
        co_await std::move(task);
        live_.fetch_sub(1, std::memory_order_release);
    }

    EventQueue &eq_;
    /// Tasks complete on their node's shard under the sharded kernel,
    /// so the count is atomic; the coordinator polls done() at barriers.
    std::atomic<int> live_{0};
    std::vector<std::coroutine_handle<>> drivers_; //!< one per spawn()
};

} // namespace cni

#endif // CNI_SIM_TASK_HPP
