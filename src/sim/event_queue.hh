/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global EventQueue orders all activity in the simulated NDP
 * system at picosecond resolution. Devices (DRAM, crossbars, links, SEs,
 * server cores) are modeled as busy-until resources that schedule
 * callbacks; simulated NDP cores are coroutines (sim/process.hh) that the
 * queue resumes when their pending operation completes.
 *
 * Events at the same tick execute in key order, which makes every
 * simulation deterministic and reproducible. The key ("seq") is a
 * window key, not a plain counter:
 *
 *   local event scheduled in window k:       (k, 0, schedule order)
 *   delivery posted in window k:             (k, 1, source unit, post order)
 *
 * Windows are the conservative lookahead windows of the sharded kernel
 * (sim/sharded_kernel.hh). A cross-unit delivery therefore runs after
 * every same-tick event scheduled in the window it was posted in and
 * before any scheduled in the next, with same-tick deliveries ordered
 * by (source unit, post order) — the order a barrier drain would give
 * them, without a drain. With one queue the queue opens its windows
 * itself: a window starts at the first event popped past the previous
 * window's end and spans min(start + lookahead - 1, until); run()
 * returning closes it. With several queues the coordinator opens and
 * closes the window on every queue (openWindow()/closeWindow()). For
 * local events alone the key is plain schedule order (same-tick FIFO).
 * Overflow of any key field panics; nothing wraps.
 *
 * A delivery is one node filed twice: at its arrival tick the queue asks
 * its DeliveryHook for the tick the callback runs at (the destination
 * crossbar exit) and refiles the same node there with a fresh local key
 * — the callback never moves.
 *
 * Implementation: a hierarchical timer — a near wheel of coarse slots
 * plus an overflow min-heap for far-future events — backed by a
 * free-list node pool, so schedule()/pop are O(1) for the short
 * link/DRAM/SE latencies that dominate and never allocate in steady
 * state. Callbacks are stored inline (common/inplace_callback.hh), so
 * scheduling a coroutine resume or a device callback performs zero heap
 * allocations.
 *
 * Relocation-free callbacks: schedule() builds the callable directly in
 * its node's callback (an InplaceCallback argument is moved in once),
 * and the queue invokes it where it sits, recycling the node only after
 * the callback returns or throws. Callbacks therefore live in
 * fixed-size chunks of kChunkNodes that never move once allocated, so
 * a running callback may schedule (and grow the pool) freely; the node
 * metadata the wheel walks — when, seq, next — sits in its own dense
 * array.
 *
 * Wheel layout: a rotating wheel of 2^12 slots of 2^6 ticks spans the
 * 2^18 ticks (262 ns) ahead of now(), with a two-level bitmap for O(1)
 * next-slot scans; its slot array is 32 KB, small enough to stay in
 * cache. An event is filed in the wheel when its slot lies fewer than
 * 2^12 slots past now()'s slot (slot = (when >> 6) mod 2^12), and in
 * the overflow heap, ordered by (when, seq), otherwise. Wheel events
 * therefore lie within one lap of now(), so each slot holds a single
 * 64-tick span and a scan from now()'s slot that wraps once meets them
 * in time order. Each slot is an intrusive list kept sorted by
 * (when, seq): a new event appends in O(1) whenever it is not earlier
 * than the slot's tail — every same-tick local event — and otherwise
 * is inserted behind the last node that precedes it. Heap events stay
 * in the heap until they run: the queue executes the earlier, by
 * (when, seq), of the wheel's head and the heap's front, so execution
 * order is exact by construction. Device latencies and sharded
 * lookahead windows sit well inside the span, so the heap carries only
 * far-future events such as open-loop arrivals.
 */

#ifndef SYNCRON_SIM_EVENT_QUEUE_HH
#define SYNCRON_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/inplace_callback.hh"
#include "common/types.hh"

namespace syncron::sim {

/** Global time-ordered queue of callbacks. */
class EventQueue
{
  public:
    /**
     * Inline capacity for event callbacks. 64 bytes holds every capture
     * in the tree — coroutine resumes (one handle) and the largest
     * device callbacks (engine/overflow: this + station ref + typed
     * request + core/var/gate) — with headroom; larger captures fail to
     * compile (capture pointers instead).
     */
    static constexpr std::size_t kCallbackBytes = 64;
    using Callback = common::InplaceCallback<kCallbackBytes>;

    /** Called when a delivery reaches its arrival tick. */
    class DeliveryHook
    {
      public:
        virtual ~DeliveryHook() = default;
        /** Charges the arrival of the delivery tagged @p tag at now()
         *  and returns the tick (>= now()) its callback runs at. */
        virtual Tick arrive(std::uint32_t tag) = 0;
    };

    // -- Key layout: window | phase | (source unit | count) or count ----
    /** Bits of a local event's per-window schedule counter. */
    static constexpr unsigned kCountBits = 27;
    /** Bits of a delivery's source-unit field. */
    static constexpr unsigned kSourceBits = 4;
    /** Bits of a delivery's per-window post counter. */
    static constexpr unsigned kDeliveryCountBits = kCountBits - kSourceBits;
    /** Bits of the window index (above the phase bit). */
    static constexpr unsigned kWindowBits = 64 - 1 - kCountBits;
    /** Source units a delivery key can name (ids 0 .. N-1). */
    static constexpr unsigned kMaxDeliverySources = 1u << kSourceBits;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedules @p f at absolute tick @p when (must be >= now()). A
     * callable is built in place in the event's node; a Callback is
     * moved in once.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        if (when < now_)
            schedulingIntoThePast(when);
        const std::uint64_t key = localKey();
        const std::uint32_t idx = emplaceCallback(std::forward<F>(f));
        enqueue(idx, when, key, 0);
    }

    /** Schedules @p f @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f)
    {
        schedule(now_ + delta, std::forward<F>(f));
    }

    /**
     * Files a cross-unit delivery from unit @p src arriving at @p when:
     * it sorts after every same-tick event scheduled in the current
     * window, before any scheduled in the next, and among same-tick
     * deliveries by (source unit, post order). At @p when the queue
     * calls the DeliveryHook with @p tag and runs @p f at the tick the
     * hook returns. Panics when @p src does not fit the key.
     */
    template <typename F>
    void
    scheduleDelivery(Tick when, std::uint32_t src, std::uint32_t tag,
                     F &&f)
    {
        if (when < now_)
            schedulingIntoThePast(when);
        const std::uint64_t key = deliveryKey(src);
        const std::uint32_t idx = emplaceCallback(std::forward<F>(f));
        enqueue(idx, when, key, tag);
    }

    /** Installs the hook deliveries call at their arrival tick. */
    void setDeliveryHook(DeliveryHook *hook) { hook_ = hook; }

    /** Lookahead self-opened windows span (default 1 tick); a sharded
     *  kernel over this one queue sets its own. Must be > 0. */
    void setLookahead(Tick lookahead);

    /** Executes the next event; returns false when the queue is empty.
     *  Opens windows like run() but leaves the last one open. */
    bool runOne();

    /**
     * Runs events until the queue is empty or simulated time would exceed
     * @p until, opening lookahead windows as it goes; closes the last
     * window on return. Returns the tick of the last executed event.
     */
    Tick run(Tick until = kTickNever);

    // -- Coordinator API (several queues, one global window) ----------
    /** Closes the current window and opens the next, ending at @p end
     *  (inclusive). */
    void openWindow(Tick end);
    /** Closes the open window (no-op when none is open): events
     *  scheduled from here on sort after its deliveries. */
    void closeWindow();
    /** Runs every event up to the open window's end; opens nothing and
     *  leaves the window open. */
    void runWindow();

    /** Windows opened so far (self-opened or by the coordinator). */
    std::uint64_t windows() const { return windows_; }

    /** True when no events are pending. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Host-side count of events executed so far (perf accounting). A
     *  delivery counts twice: its arrival and its callback. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Tick of the earliest pending event, or kTickNever when empty.
     * Pure, so a sharded coordinator can poll every shard's horizon
     * between bounded windows without perturbing queue state.
     */
    Tick nextTime() const { return nextEventTime(); }

    /** Host-side count of events executed straight from the overflow
     *  heap (perf accounting). */
    std::uint64_t heapEvents() const { return heapEvents_; }

    /** log2 of the wheel span: 2^18 ticks (262 ns), which covers the
     *  device latencies (core cycle 0.4 ns, SPU cycle 1 ns, links 40 ns,
     *  DRAM tens of ns) and a sharded lookahead window. */
    static constexpr unsigned kSpanBits = 18;
    /** Ticks the wheel spans ahead of now()'s slot; events filed
     *  further out wait in the overflow heap. */
    static constexpr Tick kSpanTicks = Tick{1} << kSpanBits;
    /** log2 of the ticks one wheel slot covers. */
    static constexpr unsigned kSlotBits = 6;
    /** Ticks one wheel slot covers; distinct ticks sharing a slot are
     *  kept in (when, seq) order inside it. */
    static constexpr Tick kSlotTicks = Tick{1} << kSlotBits;

  private:
    // -- Keys ----------------------------------------------------------
    static constexpr std::uint64_t kDeliveryBit = std::uint64_t{1}
                                                  << kCountBits;
    static constexpr std::uint64_t kLocalCountLimit = std::uint64_t{1}
                                                      << kCountBits;
    static constexpr std::uint64_t kDeliveryCountLimit =
        std::uint64_t{1} << kDeliveryCountBits;
    static constexpr std::uint64_t kWindowLimit = std::uint64_t{1}
                                                  << kWindowBits;

    /** Key of a local event scheduled now; bumps the window's count. */
    std::uint64_t
    localKey()
    {
        if (localCount_ == kLocalCountLimit) [[unlikely]]
            keyOverflow("local schedule count");
        return windowBase_ | localCount_++;
    }

    /** Key of a delivery from @p src posted now. */
    std::uint64_t
    deliveryKey(std::uint32_t src)
    {
        if (src >= kMaxDeliverySources) [[unlikely]]
            keyOverflow("delivery source unit");
        if (deliveryCount_ == kDeliveryCountLimit) [[unlikely]]
            keyOverflow("delivery post count");
        return windowBase_ | kDeliveryBit
               | (std::uint64_t{src} << kDeliveryCountBits)
               | deliveryCount_++;
    }

    [[noreturn]] void keyOverflow(const char *field) const;

    // -- Geometry ------------------------------------------------------
    /** log2 of the wheel slot count (2^12 slots per span). */
    static constexpr unsigned kWheelBits = kSpanBits - kSlotBits;
    static constexpr std::size_t kWheelSlots = std::size_t{1} << kWheelBits;
    static constexpr Tick kSlotMask = Tick{kWheelSlots - 1};
    static_assert(kWheelSlots <= 64 * 64,
                  "the two-level slot bitmap covers at most 64^2 slots");

    static std::size_t
    slotOf(Tick when)
    {
        return static_cast<std::size_t>((when >> kSlotBits) & kSlotMask);
    }

    static constexpr std::uint32_t kNilIdx = ~std::uint32_t{0};

    /** log2 of the callbacks per storage chunk. */
    static constexpr unsigned kChunkBits = 10;
    /** Callbacks per storage chunk; chunks never move once allocated. */
    static constexpr std::uint32_t kChunkNodes = std::uint32_t{1}
                                                 << kChunkBits;

    /** Pooled event node metadata; chained per wheel slot (or on the
     *  free list) via `next`. Its callback is callbackAt(index). */
    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0; ///< window key: orders same-tick events
        std::uint32_t next = kNilIdx;
        std::uint32_t tag = 0; ///< delivery tag for the DeliveryHook
    };

    /** (when, seq) order. */
    static bool
    before(const Node &a, const Node &b)
    {
        return a.when < b.when || (a.when == b.when && a.seq < b.seq);
    }

    /** One wheel slot: intrusive list of pool indices, sorted by
     *  (when, seq). */
    struct Slot
    {
        std::uint32_t head = kNilIdx;
        std::uint32_t tail = kNilIdx;
    };

    /** Overflow-heap entry (min-heap on (when, seq)). */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx; ///< pool index

        bool
        operator<(const HeapEntry &o) const
        {
            // std::push_heap builds a max-heap; invert for a min-heap.
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    // -- Pool ----------------------------------------------------------
    Callback &
    callbackAt(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkBits][idx & (kChunkNodes - 1)];
    }

    /** Builds @p f in the free-list head's callback; returns its index.
     *  The node stays on the list until enqueue(), so a throwing
     *  callable constructor leaks nothing. */
    template <typename F>
    std::uint32_t
    emplaceCallback(F &&f)
    {
        if (freeHead_ == kNilIdx)
            growPool();
        const std::uint32_t idx = freeHead_;
        Callback &cb = callbackAt(idx);
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
            static_assert(std::is_rvalue_reference_v<F &&>,
                          "pass a Callback by rvalue (std::move)");
            cb = std::move(f);
        } else {
            cb.emplace(std::forward<F>(f));
        }
        return idx;
    }

    void growPool();
    void releaseNode(std::uint32_t idx);
    /** Takes free-list head @p idx (its callback already stored) and
     *  files it at @p when under key @p seq. */
    void enqueue(std::uint32_t idx, Tick when, std::uint64_t seq,
                 std::uint32_t tag);
    /** Files node @p idx (when/seq set) in the wheel or the heap. */
    void file(std::uint32_t idx);
    [[noreturn]] void schedulingIntoThePast(Tick when) const;

    // -- Wheel ---------------------------------------------------------
    void pushSlot(std::uint32_t idx);
    /** Unlinks the head of @p slot. */
    void popSlot(std::size_t slot);
    void markSlot(std::size_t slot);
    void clearSlot(std::size_t slot);

    /** Earliest non-empty wheel slot: the first in circular order from
     *  now()'s slot. Precondition: wheel not empty. */
    std::size_t headSlot() const;

    /** Tick of the next pending event, or kTickNever. */
    Tick nextEventTime() const;

    /** Pops and runs the next event if its tick is <= @p until;
     *  returns false otherwise. With @p kSelfOpen an event past the
     *  open window opens the next one. */
    template <bool kSelfOpen>
    bool runNext(Tick until);

    /** Refiles delivery @p idx, popped at its arrival tick, at the tick
     *  the DeliveryHook returns, under a fresh local key. */
    void arrive(std::uint32_t idx);

    std::vector<Node> nodes_;
    /// Callback storage, kChunkNodes per chunk, indexed like nodes_.
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::uint32_t freeHead_ = kNilIdx;

    std::vector<Slot> slots_;
    /** Two-level occupancy bitmap over slots_ (64^2 = 2^12). */
    std::array<std::uint64_t, kWheelSlots / 64> bitsL0_{}; ///< bit/slot
    std::uint64_t bitsL1_ = 0; ///< 1 bit per L0 word

    std::vector<HeapEntry> heap_; ///< events beyond the wheel's span

    Tick now_ = 0;
    std::size_t wheelCount_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t heapEvents_ = 0;

    // -- Windows -------------------------------------------------------
    std::uint64_t window_ = 0;     ///< index keys are stamped with
    std::uint64_t windowBase_ = 0; ///< window_ << (kCountBits + 1)
    std::uint64_t localCount_ = 0;
    std::uint64_t deliveryCount_ = 0;
    bool windowOpen_ = false;
    Tick windowEnd_ = 0; ///< inclusive end of the open window
    Tick lookahead_ = 1;
    std::uint64_t windows_ = 0;
    DeliveryHook *hook_ = nullptr;
};

} // namespace syncron::sim

#endif // SYNCRON_SIM_EVENT_QUEUE_HH
