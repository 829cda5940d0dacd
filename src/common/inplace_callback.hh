/**
 * @file
 * Fixed-capacity, allocation-free callable — the event-callback type of
 * the simulation kernel.
 *
 * The discrete-event kernel schedules tens of millions of callbacks per
 * simulated run; storing each one in a std::function costs a heap
 * allocation whenever the capture exceeds the library's tiny SSO buffer
 * (libstdc++: 16 bytes — smaller than every device callback in this
 * codebase). InplaceCallback instead embeds the callable in a
 * fixed-size inline buffer and rejects anything larger at compile time,
 * so scheduling never touches the allocator.
 *
 * Capabilities are intentionally minimal: move-only, void() signature,
 * invocable once or many times. Trivially-copyable callables (every
 * coroutine-resume and device-model lambda in src/) relocate with
 * memcpy; non-trivial callables are supported through a per-type manage
 * function, so the type stays general.
 */

#ifndef SYNCRON_COMMON_INPLACE_CALLBACK_HH
#define SYNCRON_COMMON_INPLACE_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace syncron::common {

/** Move-only void() callable stored inline in @p Capacity bytes. */
template <std::size_t Capacity>
class InplaceCallback
{
    template <typename F>
    using EnableIfCallable = std::enable_if_t<
        !std::is_same_v<std::decay_t<F>, InplaceCallback>
        && std::is_invocable_r_v<void, std::decay_t<F> &>>;

  public:
    static constexpr std::size_t kCapacity = Capacity;
    static constexpr std::size_t kAlign = alignof(std::max_align_t);

    InplaceCallback() noexcept = default;

    template <typename F, typename = EnableIfCallable<F>>
    InplaceCallback(F &&f) // NOLINT: implicit like std::function
    {
        construct(std::forward<F>(f));
    }

    InplaceCallback(InplaceCallback &&other) noexcept { moveFrom(other); }

    InplaceCallback &
    operator=(InplaceCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceCallback(const InplaceCallback &) = delete;
    InplaceCallback &operator=(const InplaceCallback &) = delete;

    ~InplaceCallback() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    /** Invokes the stored callable. */
    void
    operator()()
    {
        invoke_(buf_);
    }

    /** Destroys the stored callable, leaving the object empty. */
    void
    reset() noexcept
    {
        if (manage_ != nullptr)
            manage_(nullptr, buf_);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    /**
     * Replaces the stored callable with one built from @p f directly in
     * the inline buffer — no temporary InplaceCallback, so the callable
     * is never relocated on its way in.
     */
    template <typename F, typename = EnableIfCallable<F>>
    void
    emplace(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
    }

  private:
    /** Builds @p f in the (empty) buffer. */
    template <typename F>
    void
    construct(F &&f)
    {
        using G = std::decay_t<F>;
        static_assert(sizeof(G) <= Capacity,
                      "callback capture too large for the inline "
                      "buffer; shrink the capture (capture pointers, "
                      "not values) or raise the kernel's callback "
                      "capacity");
        static_assert(alignof(G) <= kAlign,
                      "callback capture over-aligned for the inline "
                      "buffer");
        static_assert(std::is_nothrow_move_constructible_v<G>,
                      "callback captures must be nothrow-movable; the "
                      "kernel relocates events without rollback");
        ::new (static_cast<void *>(buf_)) G(std::forward<F>(f));
        invoke_ = [](void *p) { (*static_cast<G *>(p))(); };
        if constexpr (!std::is_trivially_copyable_v<G>
                      || !std::is_trivially_destructible_v<G>) {
            manage_ = [](void *dst, void *src) {
                G *s = static_cast<G *>(src);
                if (dst != nullptr)
                    ::new (dst) G(std::move(*s));
                s->~G();
            };
        }
    }

    void
    moveFrom(InplaceCallback &other) noexcept
    {
        if (other.invoke_ == nullptr)
            return;
        if (other.manage_ != nullptr)
            other.manage_(buf_, other.buf_);
        else
            std::memcpy(buf_, other.buf_, Capacity);
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    alignas(kAlign) unsigned char buf_[Capacity];
    void (*invoke_)(void *) = nullptr;
    /** Relocate (dst != null) or destroy (dst == null); null when the
     *  callable is trivially copyable and destructible. */
    void (*manage_)(void *, void *) = nullptr;
};

} // namespace syncron::common

#endif // SYNCRON_COMMON_INPLACE_CALLBACK_HH
