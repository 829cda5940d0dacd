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
 * Events at the same tick execute in scheduling order (FIFO), which makes
 * every simulation deterministic and reproducible.
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
 * Wheel layout: simulated time is divided into epochs of kEpochTicks
 * (2^22) ticks, and each epoch into 2^16 slots of 2^6 ticks. The wheel
 * holds exactly the pending events of the current epoch (slot =
 * (when >> 6) mod 2^16, with a three-level bitmap for O(1) next-slot
 * scans); all later events wait in the overflow heap, ordered by
 * (when, seq). Each slot is an intrusive list kept sorted by
 * (when, seq): a new event carries the largest seq so far, so it
 * appends in O(1) whenever it is not earlier than the slot's tail —
 * every same-tick event and all of promotion — and otherwise is
 * inserted behind the last node with when <= its own. When the current
 * epoch drains, the queue jumps to the epoch of the heap's minimum and
 * promotes that epoch's events into the wheel in (when, seq) order.
 * One epoch spans every device latency and a whole sharded lookahead
 * window, so promotions stay rare.
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
        const std::uint32_t idx = nextFreeNode();
        Callback &cb = callbackAt(idx);
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
            static_assert(std::is_rvalue_reference_v<F &&>,
                          "pass a Callback by rvalue (std::move)");
            cb = std::move(f);
        } else {
            cb.emplace(std::forward<F>(f));
        }
        enqueue(idx, when);
    }

    /** Schedules @p f @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f)
    {
        schedule(now_ + delta, std::forward<F>(f));
    }

    /** Executes the next event; returns false when the queue is empty. */
    bool runOne();

    /**
     * Runs events until the queue is empty or simulated time would exceed
     * @p until. Returns the tick of the last executed event.
     */
    Tick run(Tick until = kTickNever);

    /** True when no events are pending. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Host-side count of events executed so far (perf accounting). */
    std::uint64_t executed() const { return executed_; }

    /**
     * Tick of the earliest pending event, or kTickNever when empty.
     * Pure (performs no epoch promotion), so a sharded coordinator can
     * poll every shard's horizon between bounded run(until) windows
     * without perturbing queue state.
     */
    Tick nextTime() const { return nextEventTime(); }

    /** Host-side count of epoch promotions from the overflow heap into
     *  the wheel (perf accounting). */
    std::uint64_t promotions() const { return promotions_; }

    /** log2 of the wheel epoch: 2^22 ticks (4.2 us), which covers the
     *  device latencies (core cycle 0.4 ns, SPU cycle 1 ns, links 40 ns,
     *  DRAM tens of ns) and a whole sharded lookahead window. */
    static constexpr unsigned kEpochBits = 22;
    /** Ticks one wheel epoch spans; events beyond the current epoch
     *  wait in the overflow heap until their epoch is promoted. */
    static constexpr Tick kEpochTicks = Tick{1} << kEpochBits;
    /** log2 of the ticks one wheel slot covers. */
    static constexpr unsigned kSlotBits = 6;
    /** Ticks one wheel slot covers; distinct ticks sharing a slot are
     *  kept in (when, seq) order inside it. */
    static constexpr Tick kSlotTicks = Tick{1} << kSlotBits;

  private:
    // -- Geometry ------------------------------------------------------
    /** log2 of the near-wheel slot count (2^16 slots per epoch). */
    static constexpr unsigned kWheelBits = kEpochBits - kSlotBits;
    static constexpr std::size_t kWheelSlots = std::size_t{1} << kWheelBits;
    static constexpr Tick kSlotMask = Tick{kWheelSlots - 1};

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
        std::uint64_t seq = 0; ///< tie-breaker: FIFO among same ticks
        std::uint32_t next = kNilIdx;
    };

    /** One near-wheel slot: intrusive list of pool indices, sorted by
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

    /** Head of the free list (grown by one node when empty). The node
     *  stays on the list until enqueue(), so a throwing callable
     *  constructor leaks nothing. */
    std::uint32_t
    nextFreeNode()
    {
        if (freeHead_ == kNilIdx)
            growPool();
        return freeHead_;
    }

    void growPool();
    void releaseNode(std::uint32_t idx);
    /** Takes free-list head @p idx (its callback already stored) and
     *  files it at @p when with the next sequence number. */
    void enqueue(std::uint32_t idx, Tick when);
    [[noreturn]] void schedulingIntoThePast(Tick when) const;

    // -- Wheel ---------------------------------------------------------
    void pushSlot(std::uint32_t idx);
    /** Unlinks the head of @p slot. */
    void popSlot(std::size_t slot);
    /** First non-empty slot index >= @p from, or kWheelSlots. */
    std::size_t nextSlotFrom(std::size_t from) const;
    void markSlot(std::size_t slot);
    void clearSlot(std::size_t slot);

    /** Jumps to the overflow heap's first epoch and promotes its events
     *  into the (drained) wheel. Precondition: wheel empty, heap not. */
    void promoteNextEpoch();

    /** Earliest non-empty wheel slot. Precondition: wheel not empty. */
    std::size_t headSlot() const;

    /** Tick of the next pending event, or kTickNever. Pure: performs no
     *  promotion. */
    Tick nextEventTime() const;

    /** Pops and runs the next event if its tick is <= @p until;
     *  returns false (promoting nothing) otherwise. */
    bool runNext(Tick until);

    std::vector<Node> nodes_;
    /// Callback storage, kChunkNodes per chunk, indexed like nodes_.
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::uint32_t freeHead_ = kNilIdx;

    std::vector<Slot> slots_;
    /** Three-level occupancy bitmap over slots_ (64^3 >= 2^16). */
    std::vector<std::uint64_t> bitsL0_;          ///< 1 bit per slot
    std::array<std::uint64_t, 16> bitsL1_{};     ///< 1 bit per L0 word
    std::uint64_t bitsL2_ = 0;                   ///< 1 bit per L1 word

    std::vector<HeapEntry> heap_; ///< far-future events (later epochs)

    Tick now_ = 0;
    std::uint64_t epoch_ = 0; ///< epoch currently mapped onto the wheel
    std::size_t wheelCount_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t promotions_ = 0;
};

} // namespace syncron::sim

#endif // SYNCRON_SIM_EVENT_QUEUE_HH
