/**
 * @file
 * Small-buffer callable for the event kernel's hot path.
 *
 * std::function heap-allocates any callable whose captures exceed its
 * tiny SSO buffer (16 bytes on common implementations) — one malloc and
 * one free per scheduled event on the simulation's hottest path. InlineFn
 * instead stores the callable inline in a fixed buffer sized so every
 * lambda the kernel schedules fits (a NetMsg-capturing delivery closure
 * is the largest), and refuses larger callables at compile time, so a
 * new capture can never silently reintroduce per-event allocation.
 *
 * InlineFn is move-only: moving an event must not copy its callback,
 * and nothing ever needs a copy of one.
 */

#ifndef CNI_SIM_INLINE_FN_HPP
#define CNI_SIM_INLINE_FN_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hpp"

namespace cni
{

template <typename Sig, std::size_t BufBytes>
class InlineFn;

template <typename R, typename... Args, std::size_t BufBytes>
class InlineFn<R(Args...), BufBytes>
{
  public:
    InlineFn() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFn> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFn(F &&f) // NOLINT(bugprone-forwarding-reference-overload)
    {
        construct(std::forward<F>(f));
    }

    /**
     * Replace the held callable with `f`, built directly in the buffer:
     * the event queue constructs each callback in its slab slot this
     * way instead of moving a temporary in. An InlineFn argument is
     * moved (relocated) in.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
            *this = std::forward<F>(f);
        } else {
            reset();
            construct(std::forward<F>(f));
        }
    }

    InlineFn(InlineFn &&o) noexcept : ops_(o.ops_)
    {
        if (ops_) {
            ops_->relocate(buf_, o.buf_);
            o.ops_ = nullptr;
        }
    }

    InlineFn &
    operator=(InlineFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            ops_ = o.ops_;
            if (ops_) {
                ops_->relocate(buf_, o.buf_);
                o.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args) const
    {
        cni_assert(ops_ != nullptr);
        return ops_->invoke(const_cast<unsigned char *>(buf_),
                            std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *self, Args &&...args);
        void (*relocate)(void *dst, void *src) noexcept; //!< move + destroy
        void (*destroy)(void *self) noexcept;
    };

    // std::launder on every storage access: the buffer is reused for
    // different callable types over an InlineFn's lifetime, and lambdas
    // with reference captures have reference members — exactly the case
    // where the optimizer may otherwise cache fields across a placement
    // new that replaced the object.
    template <typename D>
    static D *
    obj(void *p) noexcept
    {
        return std::launder(static_cast<D *>(p));
    }

    template <typename D>
    static R
    doInvoke(void *self, Args &&...args)
    {
        return (*obj<D>(self))(std::forward<Args>(args)...);
    }

    template <typename D>
    static void
    doRelocate(void *dst, void *src) noexcept
    {
        ::new (dst) D(std::move(*obj<D>(src)));
        obj<D>(src)->~D();
    }

    template <typename D>
    static void
    doDestroy(void *self) noexcept
    {
        obj<D>(self)->~D();
    }

    template <typename D>
    static constexpr Ops kOps{&doInvoke<D>, &doRelocate<D>, &doDestroy<D>};

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    template <typename F>
    void
    construct(F &&f)
    {
        using D = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, D &, Args...>,
                      "callable signature does not match InlineFn");
        static_assert(sizeof(D) <= BufBytes,
                      "callable too large for InlineFn's inline buffer — "
                      "shrink the capture or box it in a unique_ptr");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "callable over-aligned for InlineFn's buffer");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        ops_ = &kOps<D>;
    }

    alignas(std::max_align_t) unsigned char buf_[BufBytes];
    const Ops *ops_ = nullptr;
};

} // namespace cni

#endif // CNI_SIM_INLINE_FN_HPP
