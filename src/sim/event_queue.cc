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

EventQueue::EventQueue() : slots_(kWheelSlots)
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
    nodes_.push_back(Node{0, 0, freeHead_, 0});
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
// Wheel
// --------------------------------------------------------------------

void
EventQueue::markSlot(std::size_t slot)
{
    const std::size_t word = slot >> 6;
    bitsL0_[word] |= std::uint64_t{1} << (slot & 63);
    bitsL1_ |= std::uint64_t{1} << word;
}

void
EventQueue::clearSlot(std::size_t slot)
{
    const std::size_t word = slot >> 6;
    bitsL0_[word] &= ~(std::uint64_t{1} << (slot & 63));
    if (bitsL0_[word] == 0)
        bitsL1_ &= ~(std::uint64_t{1} << word);
}

void
EventQueue::pushSlot(std::uint32_t idx)
{
    // A fresh local event carries the largest key of its window, so it
    // appends whenever it is not earlier than the slot's tail — every
    // same-tick local event. A local event landing on a tick that
    // already holds a delivery posted in the same window, or a delivery
    // filed behind a later-window event, is inserted behind the last
    // node that precedes it.
    Node &e = nodes_[idx];
    const std::size_t slot = slotOf(e.when);
    Slot &s = slots_[slot];
    if (s.head == kNilIdx) {
        s.head = s.tail = idx;
        markSlot(slot);
    } else if (!before(e, nodes_[s.tail])) {
        nodes_[s.tail].next = idx;
        s.tail = idx;
    } else if (before(e, nodes_[s.head])) {
        e.next = s.head;
        s.head = idx;
    } else {
        // head <= e < tail: the walk stops before tail.
        std::uint32_t prev = s.head;
        while (!before(e, nodes_[nodes_[prev].next]))
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
EventQueue::headSlot() const
{
    // Wheel events lie within one lap ahead of now_'s slot, so circular
    // order from that slot is time order: its word from now_'s bit, the
    // later words, then the earlier words and the word's own low bits.
    const std::size_t from = slotOf(now_);
    const std::size_t word = from >> 6;
    const std::uint64_t w = bitsL0_[word] & (~std::uint64_t{0} << (from & 63));
    if (w != 0)
        return word * 64 + static_cast<std::size_t>(std::countr_zero(w));
    std::uint64_t u = bitsL1_ & maskFrom(static_cast<unsigned>(word) + 1);
    if (u == 0)
        u = bitsL1_;
    SYNCRON_ASSERT(u != 0, "wheel count/bitmap disagree");
    const auto next = static_cast<std::size_t>(std::countr_zero(u));
    return next * 64
           + static_cast<std::size_t>(std::countr_zero(bitsL0_[next]));
}

Tick
EventQueue::nextEventTime() const
{
    // Slots are sorted, so a slot's head is its earliest event.
    Tick next = heap_.empty() ? kTickNever : heap_.front().when;
    if (wheelCount_ > 0)
        next = std::min(next, nodes_[slots_[headSlot()].head].when);
    return next;
}

template <bool kSelfOpen>
bool
EventQueue::runNext(Tick until)
{
    // The next event is the earlier, by (when, seq), of the wheel's
    // head and the heap's front.
    std::size_t slot = 0;
    std::uint32_t idx = kNilIdx;
    if (wheelCount_ > 0) {
        slot = headSlot();
        idx = slots_[slot].head;
    }
    bool fromHeap = false;
    if (!heap_.empty()) {
        const HeapEntry &h = heap_.front();
        fromHeap =
            idx == kNilIdx || before(Node{h.when, h.seq}, nodes_[idx]);
        if (fromHeap)
            idx = h.idx;
    }
    if (idx == kNilIdx)
        return false;
    const Tick when = nodes_[idx].when;
    if (when > until)
        return false;
    if constexpr (kSelfOpen) {
        if (!windowOpen_ || when > windowEnd_) [[unlikely]]
            openWindow(until - when < lookahead_ - 1
                           ? until
                           : when + (lookahead_ - 1));
    }
    if (fromHeap) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
        ++heapEvents_;
    } else {
        popSlot(slot);
    }
    now_ = when;
    --pending_;
    ++executed_;
    if (nodes_[idx].seq & kDeliveryBit) [[unlikely]] {
        arrive(idx);
        return true;
    }
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

void
EventQueue::arrive(std::uint32_t idx)
{
    // The node keeps its callback and goes back into the queue; only a
    // failure (hook fault, key overflow) recycles it.
    struct Refile
    {
        EventQueue &q;
        std::uint32_t idx;
        bool done = false;
        ~Refile()
        {
            if (!done)
                q.releaseNode(idx);
        }
    } refile{*this, idx};
    SYNCRON_ASSERT(hook_ != nullptr,
                   "delivery arrived at a queue without a DeliveryHook");
    const Tick at = hook_->arrive(nodes_[idx].tag);
    if (at < now_)
        schedulingIntoThePast(at);
    Node &n = nodes_[idx];
    n.seq = localKey();
    n.when = at;
    n.next = kNilIdx;
    file(idx);
    ++pending_;
    refile.done = true;
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
EventQueue::keyOverflow(const char *field) const
{
    SYNCRON_PANIC("event key overflow: " << field << " does not fit "
                  "window " << window_ << " (local count "
                  << localCount_ << ", delivery count " << deliveryCount_
                  << ")");
}

void
EventQueue::enqueue(std::uint32_t idx, Tick when, std::uint64_t seq,
                    std::uint32_t tag)
{
    Node &n = nodes_[idx];
    freeHead_ = n.next;
    n.when = when;
    n.seq = seq;
    n.next = kNilIdx;
    n.tag = tag;
    file(idx);
    ++pending_;
}

void
EventQueue::file(std::uint32_t idx)
{
    const Node &n = nodes_[idx];
    // when >= now_, so the slot distance never wraps below zero.
    if ((n.when >> kSlotBits) - (now_ >> kSlotBits) < kWheelSlots) {
        pushSlot(idx);
    } else {
        heap_.push_back(HeapEntry{n.when, n.seq, idx});
        std::push_heap(heap_.begin(), heap_.end());
    }
}

void
EventQueue::setLookahead(Tick lookahead)
{
    SYNCRON_ASSERT(lookahead > 0, "EventQueue needs a non-zero lookahead");
    lookahead_ = lookahead;
}

void
EventQueue::openWindow(Tick end)
{
    closeWindow();
    windowOpen_ = true;
    windowEnd_ = end;
    ++windows_;
}

void
EventQueue::closeWindow()
{
    if (!windowOpen_)
        return;
    windowOpen_ = false;
    if (window_ + 1 == kWindowLimit) [[unlikely]]
        keyOverflow("window index");
    ++window_;
    windowBase_ = window_ << (kCountBits + 1);
    localCount_ = 0;
    deliveryCount_ = 0;
}

bool
EventQueue::runOne()
{
    return runNext<true>(kTickNever);
}

Tick
EventQueue::run(Tick until)
{
    // A window still open here was left by a throwing run() or by
    // runOne(): events scheduled since then sorted before its
    // deliveries, and this run starts a fresh window.
    closeWindow();
    while (runNext<true>(until)) {
    }
    closeWindow();
    return now_;
}

void
EventQueue::runWindow()
{
    while (runNext<false>(windowEnd_)) {
    }
}

} // namespace syncron::sim
