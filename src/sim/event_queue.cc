#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.hh"

namespace syncron::sim {

namespace {

/** All-ones from bit @p b upward; 0 when @p b >= 64 (shift-safe). */
inline std::uint64_t
maskFrom(unsigned b)
{
    return b >= 64 ? 0 : (~std::uint64_t{0} << b);
}

} // namespace

EventQueue::EventQueue()
    : slots_(kWheelSlots), bitsL0_(kWheelSlots / 64, 0)
{
    nodes_.reserve(256);
    heap_.reserve(64);
}

// --------------------------------------------------------------------
// Node pool
// --------------------------------------------------------------------

void
EventQueue::growPool()
{
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    if ((idx & (kChunkNodes - 1)) == 0)
        chunks_.push_back(std::make_unique<Callback[]>(kChunkNodes));
    nodes_.push_back(Node{0, 0, freeHead_});
    freeHead_ = idx;
}

void
EventQueue::releaseNode(std::uint32_t idx)
{
    callbackAt(idx).reset();
    nodes_[idx].next = freeHead_;
    freeHead_ = idx;
}

// --------------------------------------------------------------------
// Near wheel
// --------------------------------------------------------------------

void
EventQueue::markSlot(std::size_t slot)
{
    const std::size_t word = slot >> 6;
    bitsL0_[word] |= std::uint64_t{1} << (slot & 63);
    bitsL1_[word >> 6] |= std::uint64_t{1} << (word & 63);
    bitsL2_ |= std::uint64_t{1} << (word >> 6);
}

void
EventQueue::clearSlot(std::size_t slot)
{
    const std::size_t word = slot >> 6;
    bitsL0_[word] &= ~(std::uint64_t{1} << (slot & 63));
    if (bitsL0_[word] == 0) {
        bitsL1_[word >> 6] &= ~(std::uint64_t{1} << (word & 63));
        if (bitsL1_[word >> 6] == 0)
            bitsL2_ &= ~(std::uint64_t{1} << (word >> 6));
    }
}

void
EventQueue::pushSlot(std::uint32_t idx)
{
    // Precondition: idx's seq exceeds that of every same-tick node
    // already in the slot — true for every fresh schedule() (seq is
    // monotonic) and for promotion (heap pops are ordered) — so (when,
    // seq) order puts it behind the last node with when <= its own.
    Node &e = nodes_[idx];
    const std::size_t slot = slotOf(e.when);
    Slot &s = slots_[slot];
    if (s.head == kNilIdx) {
        s.head = s.tail = idx;
        markSlot(slot);
    } else if (nodes_[s.tail].when <= e.when) {
        nodes_[s.tail].next = idx;
        s.tail = idx;
    } else if (e.when < nodes_[s.head].when) {
        e.next = s.head;
        s.head = idx;
    } else {
        // head.when <= e.when < tail.when: the walk stops before tail.
        std::uint32_t prev = s.head;
        while (nodes_[nodes_[prev].next].when <= e.when)
            prev = nodes_[prev].next;
        e.next = nodes_[prev].next;
        nodes_[prev].next = idx;
    }
    ++wheelCount_;
}

void
EventQueue::popSlot(std::size_t slot)
{
    Slot &s = slots_[slot];
    s.head = nodes_[s.head].next;
    if (s.head == kNilIdx) {
        s.tail = kNilIdx;
        clearSlot(slot);
    }
    --wheelCount_;
}

std::size_t
EventQueue::nextSlotFrom(std::size_t from) const
{
    if (from >= kWheelSlots)
        return kWheelSlots;
    std::size_t word = from >> 6;
    std::uint64_t w = bitsL0_[word] & maskFrom(from & 63);
    if (w == 0) {
        // Climb the summary levels to the next non-empty L0 word.
        std::size_t l1w = word >> 6;
        std::uint64_t u =
            bitsL1_[l1w] & maskFrom(static_cast<unsigned>(word & 63) + 1);
        if (u == 0) {
            const std::uint64_t v =
                bitsL2_ & maskFrom(static_cast<unsigned>(l1w) + 1);
            if (v == 0)
                return kWheelSlots;
            l1w = static_cast<std::size_t>(std::countr_zero(v));
            u = bitsL1_[l1w];
        }
        word = l1w * 64
               + static_cast<std::size_t>(std::countr_zero(u));
        w = bitsL0_[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(w));
}

// --------------------------------------------------------------------
// Overflow heap and epoch promotion
// --------------------------------------------------------------------

void
EventQueue::promoteNextEpoch()
{
    SYNCRON_ASSERT(wheelCount_ == 0 && !heap_.empty(),
                   "promotion with events still in the wheel");
    epoch_ = heap_.front().when >> kEpochBits;
    ++promotions_;
    // Heap pops come out ordered by (when, seq), so every promoted event
    // appends at its slot's tail — (when, seq) order and same-tick FIFO
    // are preserved, and any event scheduled after this promotion has a
    // larger seq and lands behind its same-tick peers.
    while (!heap_.empty() && (heap_.front().when >> kEpochBits) == epoch_) {
        std::pop_heap(heap_.begin(), heap_.end());
        const HeapEntry e = heap_.back();
        heap_.pop_back();
        pushSlot(e.idx);
    }
}

std::size_t
EventQueue::headSlot() const
{
    // All wheel events live in epoch_, which now_ has entered (or not
    // reached yet, right after construction / a promotion).
    const std::size_t from =
        (now_ >> kEpochBits) == epoch_ ? slotOf(now_) : 0;
    const std::size_t slot = nextSlotFrom(from);
    SYNCRON_ASSERT(slot < kWheelSlots, "wheel count/bitmap disagree");
    return slot;
}

Tick
EventQueue::nextEventTime() const
{
    // Slots are sorted, so a slot's head is its earliest event.
    if (wheelCount_ > 0)
        return nodes_[slots_[headSlot()].head].when;
    if (!heap_.empty())
        return heap_.front().when;
    return kTickNever;
}

bool
EventQueue::runNext(Tick until)
{
    if (wheelCount_ == 0) {
        // Promote only an epoch that will run, so stopping early never
        // strands state.
        if (heap_.empty() || heap_.front().when > until)
            return false;
        promoteNextEpoch();
    }
    const std::size_t slot = headSlot();
    const std::uint32_t idx = slots_[slot].head;
    const Tick when = nodes_[idx].when;
    if (when > until)
        return false;
    popSlot(slot);
    now_ = when;
    --pending_;
    ++executed_;
    // Run the callback where it sits: its chunk never moves, and the
    // node stays off the free list until the callback returns (or
    // throws), so the callback may schedule freely.
    struct Recycle
    {
        EventQueue &q;
        std::uint32_t idx;
        ~Recycle() { q.releaseNode(idx); }
    } recycle{*this, idx};
    callbackAt(idx)();
    return true;
}

// --------------------------------------------------------------------
// Public interface
// --------------------------------------------------------------------

void
EventQueue::schedulingIntoThePast(Tick when) const
{
    SYNCRON_PANIC("assertion failed: when >= now_: scheduling into the "
                  "past: when=" << when << " now=" << now_);
}

void
EventQueue::enqueue(std::uint32_t idx, Tick when)
{
    Node &n = nodes_[idx];
    freeHead_ = n.next;
    n.when = when;
    n.seq = nextSeq_++;
    n.next = kNilIdx;
    if ((when >> kEpochBits) == epoch_) {
        pushSlot(idx);
    } else {
        // Whenever user code runs, now_ is inside epoch_, so when >=
        // now_ puts later epochs (never earlier ones) in the heap.
        heap_.push_back(HeapEntry{when, n.seq, idx});
        std::push_heap(heap_.begin(), heap_.end());
    }
    ++pending_;
}

bool
EventQueue::runOne()
{
    return runNext(kTickNever);
}

Tick
EventQueue::run(Tick until)
{
    while (runNext(until)) {
    }
    return now_;
}

} // namespace syncron::sim
