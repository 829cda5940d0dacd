/**
 * @file
 * Tests for the timing-wheel event queue: same-tick FIFO determinism,
 * (when, seq) order inside one coarse wheel slot, order between the
 * rotating wheel and the overflow heap at and past the wheel's span
 * (including many laps of wrap-around), run(until) boundary semantics,
 * in-place callbacks (stable while the pool grows, recycled when they
 * throw), allocation-freedom of steady-state scheduling and of the
 * machine's cross-unit message path (via a counting global operator
 * new), how often a continuation is relocated on its way to its
 * destination, the window-key overflow checks, the delivery order
 * against a reference drain-based kernel, and serial-vs-parallel grid
 * determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/grid.hh"
#include "harness/runner.hh"
#include "sim/event_queue.hh"
#include "sim/process.hh"
#include "sim/sharded_kernel.hh"
#include "system/machine.hh"

#include "counting_alloc.hh"

namespace syncron::sim {
namespace {

// The wheel spans this far ahead of now()'s slot; anything further is
// filed in the overflow heap and served from there.
constexpr Tick kHorizon = EventQueue::kSpanTicks;

TEST(TimingWheel, SameTickFifoAcrossManyEvents)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        eq.schedule(5000, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(TimingWheel, SameTickFifoAcrossHeapAndWheel)
{
    EventQueue eq;
    const Tick far = 10 * kHorizon + 123; // several spans out
    std::vector<int> order;

    // 1 and 2 are scheduled while `far` is beyond the wheel's span
    // (overflow heap); 3 is scheduled at the same tick from a callback
    // running at `far` (directly into the wheel).
    eq.schedule(far, [&] {
        order.push_back(1);
        eq.schedule(far, [&] { order.push_back(3); });
    });
    eq.schedule(far, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), far);
}

TEST(TimingWheel, OrderHoldsAcrossSpanBoundaries)
{
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick ticks[] = {kHorizon + 1, kHorizon,     kHorizon - 1,
                          3 * kHorizon, 2 * kHorizon, 7,
                          5 * kHorizon + 99};
    for (Tick t : ticks)
        eq.schedule(t, [&fired, t] { fired.push_back(t); });
    eq.run();
    EXPECT_EQ(fired,
              (std::vector<Tick>{7, kHorizon - 1, kHorizon, kHorizon + 1,
                                 2 * kHorizon, 3 * kHorizon,
                                 5 * kHorizon + 99}));
}

TEST(TimingWheel, RandomizedOrderMatchesWhenSeqSort)
{
    // Deterministic LCG spray over several spans; execution order must
    // equal (when, schedule-order) lexicographic order.
    EventQueue eq;
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    struct Ref
    {
        Tick when;
        int seq;
    };
    std::vector<Ref> refs;
    std::vector<int> fired;
    for (int i = 0; i < 2000; ++i) {
        const Tick when = next() % (5 * kHorizon);
        refs.push_back(Ref{when, i});
        eq.schedule(when, [&fired, i] { fired.push_back(i); });
    }
    eq.run();
    std::stable_sort(refs.begin(), refs.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.when < b.when;
                     });
    ASSERT_EQ(fired.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i)
        EXPECT_EQ(fired[i], refs[i].seq) << "at position " << i;
}

/**
 * Schedules through a queue while logging (when, schedule order), so a
 * test can check the execution order against a (when, seq) sort.
 */
struct OrderLog
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> scheduled;
    std::vector<int> fired;

    template <typename Then>
    void
    at(Tick when, Then then)
    {
        const int id = static_cast<int>(scheduled.size());
        scheduled.emplace_back(when, id);
        eq.schedule(when, [this, id, then] {
            fired.push_back(id);
            then();
        });
    }

    void at(Tick when) { at(when, [] {}); }

    void
    expectWhenSeqOrder() const
    {
        std::vector<std::pair<Tick, int>> ref = scheduled;
        std::sort(ref.begin(), ref.end());
        ASSERT_EQ(fired.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_EQ(fired[i], ref[i].second) << "at position " << i;
    }
};

TEST(TimingWheel, DescendingDistinctTicksInOneSlot)
{
    // Every tick of one coarse slot, scheduled latest first (each new
    // event is earlier than the slot's tail), with same-tick repeats
    // mixed in: the slot must still yield ascending (when, seq).
    OrderLog log;
    const Tick base = 7 * EventQueue::kSlotTicks;
    for (Tick i = 0; i < EventQueue::kSlotTicks; ++i) {
        const Tick when = base + EventQueue::kSlotTicks - 1 - i;
        log.at(when);
        if (i % 3 == 0)
            log.at(base + EventQueue::kSlotTicks - 1 - i / 2);
    }
    log.at(base + EventQueue::kSlotTicks); // the next slot
    log.at(base);
    log.eq.run();
    log.expectWhenSeqOrder();
    EXPECT_EQ(log.eq.now(), base + EventQueue::kSlotTicks);
}

TEST(TimingWheel, SchedulingIntoTheDrainingSlotKeepsFifo)
{
    // Events scheduled from inside a slot that is being drained — at
    // the running tick, between pending ticks of the same slot, and
    // behind its tail — run in (when, seq) order: same-tick FIFO holds
    // inside a coarse slot.
    OrderLog log;
    const Tick base = 3 * EventQueue::kSlotTicks;
    log.at(base + 10, [&log, base] {
        log.at(base + 10, [&log, base] { log.at(base + 10); });
        log.at(base + 20);
        log.at(base + 40);
        log.at(base + EventQueue::kSlotTicks - 1);
        log.at(base + 10);
        log.at(base + 11);
    });
    log.at(base + 10);
    log.at(base + 40);
    log.at(base + EventQueue::kSlotTicks - 1);
    log.eq.run();
    log.expectWhenSeqOrder();
    EXPECT_EQ(log.fired.size(), 11u);
}

/** A chain of events that each reschedule the next about one wheel
 *  span ahead, logged through an OrderLog. */
struct LapChain
{
    OrderLog *log;
    std::uint64_t *lcg;
    unsigned hopsLeft;

    void
    hop()
    {
        if (hopsLeft == 0)
            return;
        --hopsLeft;
        *lcg = *lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t r = *lcg >> 33;
        // Span - 1 slot, span, or span + 1 slot, jittered by +-3 ticks;
        // one hop in four is a short device-like delay instead.
        const Tick deltas[] = {kHorizon - EventQueue::kSlotTicks, kHorizon,
                               kHorizon + EventQueue::kSlotTicks};
        const Tick delta = r % 4 == 3
                               ? 1 + (r >> 2) % 2000
                               : deltas[(r >> 2) % 3] + (r >> 4) % 7 - 3;
        log->at(log->eq.now() + delta, [this] { hop(); });
    }
};

TEST(TimingWheel, SelfReschedulingAcrossManyLapsKeepsWhenSeqOrder)
{
    // 48 chains that start on a handful of shared ticks and hop about
    // one span at a time, for well over 16 laps of the wheel. The hops
    // land just inside and just outside the wheel, so the wheel wraps
    // many times, and wheel and heap events keep meeting on one tick.
    OrderLog log;
    std::uint64_t lcg = 2024;
    std::vector<LapChain> chains(48, LapChain{&log, &lcg, 40});
    for (std::size_t i = 0; i < chains.size(); ++i)
        log.at(5 * (i % 8), [c = &chains[i]] { c->hop(); });
    log.eq.run();
    log.expectWhenSeqOrder();
    EXPECT_EQ(log.fired.size(), 48u * 41u);
    EXPECT_GE(log.eq.now(), 16 * kHorizon);
    EXPECT_GT(log.eq.heapEvents(), 0u);
    EXPECT_LT(log.eq.heapEvents(), log.eq.executed());
}

TEST(TimingWheel, HeapEventRunsBeforeALaterWheelEventAtItsTick)
{
    // Events 0 and 2 are filed beyond the span, in the heap. Event 1
    // runs half a span before their tick and schedules 3 at it, which
    // is then inside the span, in the wheel. Same-tick order is key
    // order: 0, 2, then 3.
    OrderLog log;
    const Tick t = 3 * kHorizon + 5;
    log.at(t);
    log.at(t - kHorizon / 2, [&log, t] { log.at(t); });
    log.at(t);
    log.eq.run();
    log.expectWhenSeqOrder();
    EXPECT_EQ(log.fired, (std::vector<int>{1, 0, 2, 3}));
    EXPECT_EQ(log.eq.heapEvents(), 3u);
    EXPECT_EQ(log.eq.executed(), 4u);
}

TEST(TimingWheel, RunUntilBoundarySemantics)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(21, [&] { ++count; });
    eq.schedule(3 * kHorizon, [&] { ++count; });

    // Events at exactly `until` run; later ones do not. now() is the
    // last executed tick, not `until`.
    EXPECT_EQ(eq.run(20), 20u);
    EXPECT_EQ(count, 3);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 2u);

    // Stopping early must not disturb later scheduling or the heap:
    // a fresh event between now and the far event still runs first.
    eq.schedule(50, [&] { ++count; });
    EXPECT_EQ(eq.run(2 * kHorizon), 50u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.run(), 3 * kHorizon);
    EXPECT_EQ(count, 6);
    EXPECT_TRUE(eq.empty());
}

TEST(TimingWheel, RunUntilStopsExactlyAtSpanEdges)
{
    // Window limits may land on (or next to) a multiple of the wheel's
    // span, where events switch between wheel and heap; the queue must
    // stop exactly there, executing nothing past the limit.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick ticks[] = {kHorizon - 1, kHorizon, kHorizon + 1,
                          2 * kHorizon - 1, 2 * kHorizon};
    for (Tick t : ticks)
        eq.schedule(t, [&fired, t] { fired.push_back(t); });

    // Stop one tick before the first span edge.
    EXPECT_EQ(eq.run(kHorizon - 1), kHorizon - 1);
    EXPECT_EQ(fired, (std::vector<Tick>{kHorizon - 1}));
    EXPECT_EQ(eq.nextTime(), kHorizon);
    EXPECT_EQ(eq.pending(), 4u);

    // Stop exactly on the edge: the event AT the limit runs, the one
    // just past it does not.
    EXPECT_EQ(eq.run(kHorizon), kHorizon);
    EXPECT_EQ(fired.back(), kHorizon);
    EXPECT_EQ(eq.nextTime(), kHorizon + 1);

    // Resume across the remaining edge; nothing is stranded.
    EXPECT_EQ(eq.run(), 2 * kHorizon);
    EXPECT_EQ(fired,
              (std::vector<Tick>{kHorizon - 1, kHorizon, kHorizon + 1,
                                 2 * kHorizon - 1, 2 * kHorizon}));
    EXPECT_TRUE(eq.empty());
}

TEST(TimingWheel, RunUntilInsideAnEmptyGap)
{
    // Stop inside a gap several spans wide that holds no events at all
    // (limit between two far-apart events). nextTime() must keep
    // reporting the heap minimum, and scheduling new events after the
    // early stop must still execute them in order.
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(10, [&] { fired.push_back(10); });
    eq.schedule(5 * kHorizon + 3,
                [&] { fired.push_back(5 * kHorizon + 3); });

    EXPECT_EQ(eq.run(2 * kHorizon + 7), 10u); // now() = last executed
    EXPECT_EQ(fired, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.nextTime(), 5 * kHorizon + 3); // pure
    EXPECT_EQ(eq.pending(), 1u);

    // A fresh event earlier than the parked far event (but beyond the
    // span from now()) must run first on resume.
    eq.schedule(3 * kHorizon, [&] { fired.push_back(3 * kHorizon); });
    EXPECT_EQ(eq.run(), 5 * kHorizon + 3);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 3 * kHorizon,
                                        5 * kHorizon + 3}));
}

TEST(TimingWheel, RunUntilRepeatedWindowsMatchOneShot)
{
    // Driving the queue in lookahead-sized windows (the sharded
    // coordinator's access pattern) must execute the exact sequence a
    // single unbounded run() produces — including events that schedule
    // follow-ups landing in later windows and beyond the span.
    auto spray = [](EventQueue &q, std::vector<Tick> &fired) {
        std::uint64_t lcg = 99;
        for (int i = 0; i < 300; ++i) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            const Tick when = (lcg >> 33) % (3 * kHorizon);
            q.schedule(when, [&q, &fired, when] {
                fired.push_back(when);
                q.schedule(when + kHorizon / 3,
                           [&fired, when] {
                               fired.push_back(when + kHorizon / 3);
                           });
            });
        }
    };
    EventQueue ref;
    std::vector<Tick> refFired;
    spray(ref, refFired);
    ref.run();

    EventQueue win;
    std::vector<Tick> winFired;
    spray(win, winFired);
    const Tick window = kHorizon / 2 - 7; // misaligned with the span
    for (Tick limit = window;; limit += window) {
        win.run(limit);
        if (win.empty())
            break;
    }
    EXPECT_EQ(winFired, refFired);
    EXPECT_EQ(win.executed(), ref.executed());
    EXPECT_EQ(win.now(), ref.now());
}

TEST(TimingWheel, PendingAndExecutedCounters)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    eq.schedule(5, [] {});
    eq.schedule(5 + 2 * kHorizon, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 2u);
}

// -- In-place callbacks ------------------------------------------------

TEST(TimingWheel, CallbackRunsInPlaceWhilePoolGrows)
{
    // A running callback with a full 64-byte capture schedules more
    // than one storage chunk of events, growing the node pool under
    // itself; its capture must be intact afterwards.
    struct Ctx
    {
        EventQueue eq;
        std::vector<Tick> fired;
        bool intact = false;
    } ctx;
    std::array<std::uint64_t, 7> pattern;
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = 0x0123456789abcdefULL * (i + 1);
    auto grower = [c = &ctx, pattern] {
        for (int i = 0; i < 3000; ++i)
            c->eq.schedule(c->eq.now() + 1 + i % 50,
                           [c] { c->fired.push_back(c->eq.now()); });
        bool same = true;
        for (std::size_t i = 0; i < pattern.size(); ++i)
            same = same && pattern[i] == 0x0123456789abcdefULL * (i + 1);
        c->intact = same;
    };
    static_assert(sizeof(grower) == EventQueue::kCallbackBytes);
    EventQueue &eq = ctx.eq;
    const std::vector<Tick> &fired = ctx.fired;
    const bool &intact = ctx.intact;
    eq.schedule(5, grower);
    eq.run();
    EXPECT_TRUE(intact);
    EXPECT_EQ(fired.size(), 3000u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(eq.executed(), 3001u);
    EXPECT_TRUE(eq.empty());
}

TEST(TimingWheel, ThrowingCallbackLeavesQueueUsable)
{
    EventQueue eq;
    std::vector<int> fired;
    auto held = std::make_shared<int>(7);
    eq.schedule(10, [&fired] { fired.push_back(1); });
    eq.schedule(20, [held] { throw std::runtime_error("device fault"); });
    eq.schedule(20, [&fired] { fired.push_back(2); });
    eq.schedule(30 + 2 * kHorizon, [&fired] { fired.push_back(3); });

    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1}));
    // The thrower's node was recycled: its capture is destroyed.
    EXPECT_EQ(held.use_count(), 1);

    // The queue keeps scheduling and running in (when, seq) order.
    eq.schedule(20, [&fired] { fired.push_back(4); });
    eq.schedule(25, [&fired] { fired.push_back(5); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 5, 3}));
    EXPECT_EQ(eq.executed(), 6u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
}

// -- Allocation-freedom ------------------------------------------------

/** Self-rescheduling event with a coroutine-resume-sized capture. */
struct ResumeState
{
    EventQueue *q;
    std::uint64_t *remaining;
    Tick delta;
};

void
resumeEvent(ResumeState *s)
{
    if (*s->remaining == 0)
        return;
    --*s->remaining;
    s->q->scheduleIn(s->delta, [s] { resumeEvent(s); });
}

TEST(TimingWheelAlloc, SteadyStateSchedulingIsAllocationFree)
{
    EventQueue eq;
    std::array<ResumeState, 64> states;
    std::uint64_t remaining = 0;

    auto seed = [&](std::uint64_t events) {
        remaining = events;
        for (std::size_t i = 0; i < states.size(); ++i) {
            // Mix near deltas with far ones that traverse the overflow
            // heap, so both paths are exercised.
            const Tick delta =
                i % 4 == 3 ? 3 * kHorizon + 17 : 400 * (1 + i % 5);
            states[i] = ResumeState{&eq, &remaining, delta};
            resumeEvent(&states[i]);
        }
        eq.run();
        EXPECT_EQ(remaining, 0u);
    };

    // Warm-up grows the node pool and overflow heap to working size.
    seed(20000);

    const std::uint64_t before = allocCount();
    seed(20000);
    const std::uint64_t after = allocCount();
    EXPECT_EQ(after - before, 0u)
        << "schedule()/scheduleIn()/run() allocated in steady state";
}

sim::Process
delayTicker(EventQueue &eq, unsigned n, unsigned &count)
{
    for (unsigned i = 0; i < n; ++i) {
        co_await Delay{eq, 400};
        ++count;
    }
}

TEST(TimingWheelAlloc, CoroutineResumeSchedulingIsAllocationFree)
{
    EventQueue eq;
    // Warm the pool with plain events.
    for (int i = 0; i < 64; ++i)
        eq.schedule(eq.now() + i, [] {});
    eq.run();

    // Coroutine frames allocate at creation time — before the measured
    // region. Resuming through Delay must not allocate.
    unsigned count = 0;
    std::array<sim::Process, 8> procs;
    for (auto &p : procs)
        p = delayTicker(eq, 1000, count);

    const std::uint64_t before = allocCount();
    for (auto &p : procs)
        p.start(eq);
    eq.run();
    const std::uint64_t after = allocCount();

    for (auto &p : procs)
        EXPECT_TRUE(p.done());
    EXPECT_EQ(count, 8u * 1000u);
    EXPECT_EQ(after - before, 0u)
        << "coroutine resume scheduling allocated";
}

// -- Relocation counts -------------------------------------------------

/**
 * Callable whose move constructor counts relocations. Copies are free,
 * so a probe handed over as an lvalue counts only the moves the kernel
 * makes; invoking it records the count reached so far.
 */
struct MoveProbe
{
    int *moves;
    int *movesAtRun;

    MoveProbe(int *m, int *r) : moves(m), movesAtRun(r) {}
    MoveProbe(const MoveProbe &) = default;
    MoveProbe(MoveProbe &&o) noexcept
        : moves(o.moves), movesAtRun(o.movesAtRun)
    {
        ++*moves;
    }
    MoveProbe &operator=(const MoveProbe &) = delete;

    void operator()() const { *movesAtRun = *moves; }
};

TEST(TimingWheelAlloc, EventCallbacksRunWithoutRelocation)
{
    EventQueue eq;
    int moves = 0;
    int atRun = -1;
    MoveProbe probe{&moves, &atRun}; // non-const: the capture moves
    auto lambda = [probe] { probe(); };

    // A callable is built in its node and run there — even while 3000
    // later events grow the pool past several storage chunks.
    eq.schedule(100, lambda);
    for (int i = 0; i < 3000; ++i)
        eq.schedule(1 + i % 90, [] {});
    eq.run();
    EXPECT_EQ(atRun, 0) << "schedule() relocated a lambda";

    moves = 0;
    atRun = -1;
    eq.scheduleIn(7, lambda);
    eq.run();
    EXPECT_EQ(atRun, 0) << "scheduleIn() relocated a lambda";

    // A prebuilt Callback is moved into its node once.
    moves = 0;
    atRun = -1;
    EventQueue::Callback cb{lambda};
    ASSERT_EQ(moves, 0);
    eq.schedule(eq.now() + 3 * kHorizon, std::move(cb));
    eq.run();
    EXPECT_LE(atRun, 1) << "a Callback argument moved more than once";
}

// -- Allocation-free cross-unit messages -------------------------------

/** A message hopping unit to unit around the machine's ring. Only the
 *  shard currently holding it touches it (barriers order handoffs). */
struct Token
{
    Machine *m;
    unsigned hops;
    UnitId at;
};

void
forwardToken(Token *t)
{
    if (t->hops == 0)
        return;
    --t->hops;
    const UnitId from = t->at;
    t->at = (from + 1) % t->m->config().numUnits;
    t->m->postMessage(t->m->eq(from).now(), from, t->at, 64,
                      [t] { forwardToken(t); });
}

TEST(MailboxAlloc, CrossUnitPostIsAllocationFreeAcrossWindows)
{
    // Every post is keyed straight into the destination wheel; at four
    // shards every cross-unit post lands in another shard's queue.
    for (const unsigned shards : {1u, 4u}) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 1);
        cfg.simShards = shards;
        Machine m(cfg);
        ASSERT_EQ(m.numShards(), shards);
        ShardedKernel kernel(m.shardQueues(), m.lookahead(), m);

        std::array<Token, 16> tokens;
        auto circulate = [&](unsigned hops) {
            for (std::size_t i = 0; i < tokens.size(); ++i) {
                const auto u = static_cast<UnitId>(i % cfg.numUnits);
                tokens[i] = Token{&m, hops, u};
                m.eq(u).schedule(m.eq(u).now() + 100 * i,
                                 [t = &tokens[i]] { forwardToken(t); });
            }
            kernel.run();
            for (const Token &t : tokens)
                EXPECT_EQ(t.hops, 0u);
        };

        // Warm-up grows the node pools to working size.
        circulate(200);

        const std::uint64_t windowsBefore = kernel.windows();
        const std::uint64_t before = allocCount();
        circulate(200);
        const std::uint64_t after = allocCount();
        EXPECT_GT(kernel.windows() - windowsBefore, 100u)
            << shards << " shard(s)";
        EXPECT_EQ(after - before, 0u)
            << "postMessage() allocated across windows at "
            << shards << " shard(s)";
    }
}

TEST(MailboxAlloc, CrossUnitContinuationMovesOnceAtEveryShardCount)
{
    // A post is keyed straight into the destination wheel, on the same
    // shard or another: one move. The arrival refiles the node without
    // touching the callback.
    for (const unsigned shards : {1u, 2u, 4u}) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 1);
        cfg.simShards = shards;
        Machine m(cfg);
        ASSERT_EQ(m.numShards(), shards);
        ShardedKernel kernel(m.shardQueues(), m.lookahead(), m);

        // Warm-up sizes the node pools, so no vector growth relocates
        // the probe.
        std::array<Token, 16> tokens;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            const auto u = static_cast<UnitId>(i % cfg.numUnits);
            tokens[i] = Token{&m, 50, u};
            m.eq(u).schedule(m.eq(u).now() + 100 * i,
                             [t = &tokens[i]] { forwardToken(t); });
        }
        kernel.run();

        // Units 0 and 1 share a shard below four shards; 1 and 2 share
        // one only at one shard.
        for (const auto &[from, to] :
             {std::pair<UnitId, UnitId>{0, 1}, {1, 2}}) {
            const bool sameShard = m.shardOf(from) == m.shardOf(to);
            int moves = 0;
            int atRun = -1;
            const MoveProbe probe{&moves, &atRun};
            m.eq(from).schedule(
                m.eq(from).now() + 10, [&m, &probe, from = from, to = to] {
                    m.postMessage(m.eq(from).now(), from, to, 64, probe);
                });
            kernel.run();
            EXPECT_GE(atRun, 0) << "continuation never ran at " << shards
                                << " shard(s)";
            EXPECT_EQ(atRun, 1)
                << "continuation " << from << "->" << to << " ("
                << (sameShard ? "same" : "cross") << " shard) moved "
                << atRun << " times at " << shards << " shard(s)";
        }
    }
}

TEST(MailboxOrder, SameTickArrivalsDeliverBySourceUnitThenSequence)
{
    // Units 3, 2, 1 — posting in that order within one window — each
    // send three messages to unit 0 from the same start tick. Their
    // crossbars and links see identical traffic, so message k of every
    // source lands on the same arrival tick; they must deliver by
    // (arrival, source unit, per-unit sequence) at every shard count.
    struct Delivery
    {
        UnitId src;
        int k;
        bool operator==(const Delivery &) const = default;
    };
    constexpr int kPerUnit = 3;
    std::vector<Delivery> expected;
    for (int k = 0; k < kPerUnit; ++k)
        for (UnitId u = 1; u <= 3; ++u)
            expected.push_back(Delivery{u, k});

    for (const unsigned shards : {1u, 2u, 4u}) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 1);
        cfg.simShards = shards;
        Machine m(cfg);
        ASSERT_EQ(m.numShards(), shards);
        ShardedKernel kernel(m.shardQueues(), m.lookahead(), m);

        std::vector<Delivery> log; // touched only on unit 0's shard
        const Tick start = 1000;
        for (UnitId u = 3; u >= 1; --u) {
            m.eq(u).schedule(start, [&m, &log, u, start] {
                for (int k = 0; k < kPerUnit; ++k)
                    m.postMessage(start, u, 0, 64, [&log, u, k] {
                        log.push_back(Delivery{u, k});
                    });
            });
        }
        kernel.run();
        ASSERT_EQ(log.size(), expected.size()) << shards << " shard(s)";
        for (std::size_t i = 0; i < log.size(); ++i) {
            EXPECT_EQ(log[i], expected[i])
                << "position " << i << " at " << shards
                << " shard(s): got unit " << log[i].src << " message "
                << log[i].k;
        }
    }
}

// -- Window keys -------------------------------------------------------

/** Hook that runs each delivery's callback at its arrival tick and
 *  logs the arrival's tag when given a log. */
struct ArrivalHook : EventQueue::DeliveryHook
{
    EventQueue *q = nullptr;
    std::vector<int> *log = nullptr;
    Tick
    arrive(std::uint32_t tag) override
    {
        if (log != nullptr)
            log->push_back(static_cast<int>(tag));
        return q->now();
    }
};

TEST(WindowKey, DeliveryFromUnitBeyondSourceFieldIsRejected)
{
    EventQueue eq;
    ArrivalHook hook;
    hook.q = &eq;
    eq.setDeliveryHook(&hook);
    int ran = 0;
    EXPECT_THROW(eq.scheduleDelivery(10, EventQueue::kMaxDeliverySources,
                                     0, [&ran] { ++ran; }),
                 std::logic_error);
    EXPECT_THROW(eq.scheduleDelivery(10, ~std::uint32_t{0}, 0,
                                     [&ran] { ++ran; }),
                 std::logic_error);
    EXPECT_TRUE(eq.empty());

    // The widest id that fits is accepted.
    eq.scheduleDelivery(10, EventQueue::kMaxDeliverySources - 1, 0,
                        [&ran] { ++ran; });
    eq.run();
    EXPECT_EQ(ran, 1);
}

TEST(WindowKey, DeliveriesFollowTheirWindowsLocalEvents)
{
    // Lookahead 100. The window [0, 99] posts deliveries to tick 150
    // from sources 2, 1, 2, then schedules a local event (0) at 150.
    // The next window, [120, 219], schedules another (4) at 150. The
    // arrivals sort after 0, by source unit then post order, and before
    // 4.
    EventQueue eq;
    std::vector<int> order;
    ArrivalHook hook;
    hook.q = &eq;
    hook.log = &order;
    eq.setDeliveryHook(&hook);
    eq.setLookahead(100);
    eq.schedule(0, [&] {
        eq.scheduleDelivery(150, 2, 2, [] {});
        eq.scheduleDelivery(150, 1, 1, [] {});
        eq.scheduleDelivery(150, 2, 3, [] {});
        eq.schedule(150, [&order] { order.push_back(0); });
    });
    eq.schedule(120, [&] {
        eq.schedule(150, [&order] { order.push_back(4); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.windows(), 2u);
    // Arrival and callback each count as an executed event.
    EXPECT_EQ(eq.executed(), 2u + 3u * 2u + 2u);
}

TEST(WindowKey, WheelEventRunsBeforeAnEarlierKeyedHeapDelivery)
{
    // One window spans two wheel spans. At tick 0 a delivery is posted
    // to tick span + 100, beyond the span: the heap. Half a span later,
    // still in the same window, a local event is scheduled at the same
    // tick, now inside the span: the wheel. The local key sorts before
    // the window's deliveries, so the wheel event runs first.
    EventQueue eq;
    std::vector<int> order;
    ArrivalHook hook;
    hook.q = &eq;
    hook.log = &order;
    eq.setDeliveryHook(&hook);
    eq.setLookahead(2 * kHorizon);
    const Tick t = kHorizon + 100;
    eq.schedule(0, [&eq, t] { eq.scheduleDelivery(t, 3, 1, [] {}); });
    eq.schedule(kHorizon / 2, [&eq, &order, t] {
        eq.schedule(t, [&order] { order.push_back(0); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.windows(), 1u);
    EXPECT_EQ(eq.heapEvents(), 1u); // the delivery's arrival
}

// -- Reference delivery order ------------------------------------------

/**
 * Reference-order test. A test-local oracle keeps the delivery order of
 * a drain-based kernel: one plain (when, seq) queue, a lookahead window
 * loop, and at every barrier a drain that sorts the window's cross-unit
 * posts by (arrival, source unit, per-unit sequence) and schedules one
 * arrival event each, which pays the destination crossbar and schedules
 * the continuation. The same deterministic traffic program runs on the
 * oracle and on a real Machine at 1, 2 and 4 shards; every execution
 * log must match.
 */
constexpr unsigned kRefUnits = 4;
constexpr unsigned kRefGenerations = 7;

struct Fired
{
    UnitId unit;
    Tick when;
    std::uint32_t id;
    bool operator==(const Fired &) const = default;
};

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Where the traffic program runs: the oracle or a real Machine. */
class World
{
  public:
    virtual ~World() = default;
    virtual Tick now(UnitId u) = 0;
    virtual void local(UnitId u, Tick when, std::uint32_t id) = 0;
    virtual void post(Tick start, UnitId from, UnitId to,
                      std::uint32_t bits, std::uint32_t id) = 0;
    virtual void log(UnitId u, std::uint32_t id) = 0;

    Tick lookahead = 0;
    /// Uncontended cross-unit latency of a 64-bit message to the link
    /// exit: a local event this far out lands on the arrival tick of a
    /// same-tick post from the neighbouring unit.
    Tick hop = 0;
};

/** One traffic event on unit @p u: logs itself, then posts and
 *  schedules children derived from its id alone. */
void
fire(World &w, UnitId u, std::uint32_t id)
{
    w.log(u, id);
    const std::uint32_t gen = id >> 24;
    if (gen >= kRefGenerations)
        return;
    std::uint64_t r = mix(id);
    auto next = [&r] { return r = mix(r); };
    const unsigned children = 1 + next() % 3;
    for (unsigned k = 0; k < children; ++k) {
        const std::uint32_t child =
            ((gen + 1) << 24)
            | static_cast<std::uint32_t>(next() & 0xffffff);
        const Tick now = w.now(u);
        const auto other = static_cast<UnitId>(
            (u + 1 + next() % (kRefUnits - 1)) % kRefUnits);
        switch (next() % 8) {
          case 0: // same tick or just after
            w.local(u, now + next() % 3, child);
            break;
          case 1: // exactly one lookahead out (the next window's first
                  // tick when now opened this one), or a few windows
            w.local(u,
                    now + (next() % 2 == 0 ? w.lookahead
                                           : next() % (4 * w.lookahead)),
                    child);
            break;
          case 2: // on the arrival tick of a post from unit u - 1
            w.local(u, now + w.hop, child);
            break;
          case 3: // ring post, colliding with case 2 downstream
            w.post(now, u, (u + 1) % kRefUnits, 64, child);
            break;
          case 4: // many sources, one destination, one size
            w.post(now, u, 0, 64, child);
            break;
          case 5: // same-unit message
            w.post(now, u, u, 64, child);
            break;
          default:
            w.post(now, u, other,
                   64 + 8 * static_cast<std::uint32_t>(next() % 32),
                   child);
            break;
        }
    }
}

/** Drain-based reference kernel over its own (device-only) Machine. */
class Oracle : public World
{
  public:
    explicit Oracle(const SystemConfig &cfg)
        : perUnit(kRefUnits), dev_(cfg)
    {
    }

    Tick now(UnitId) override { return now_; }

    void
    local(UnitId u, Tick when, std::uint32_t id) override
    {
        push(when, false, u, id, 0);
    }

    void
    post(Tick start, UnitId from, UnitId to, std::uint32_t bits,
         std::uint32_t id) override
    {
        if (from == to) {
            push(dev_.xbar(from).transfer(start, bits), false, to, id, 0);
            return;
        }
        Tick t = dev_.xbar(from).transfer(start, bits);
        t = dev_.links().send(t, from, to, (bits + 7) / 8);
        outbox_.push_back(
            Post{t, from, unitSeq_[from]++, to, bits, id, window_});
        if (!running_)
            ++postsBetweenRuns;
    }

    void
    log(UnitId u, std::uint32_t id) override
    {
        all.push_back(Fired{u, now_, id});
        perUnit[u].push_back(all.back());
    }

    /** The drain-based window loop of a run bounded by @p until. */
    void
    run(Tick until)
    {
        running_ = true;
        for (;;) {
            drain();
            if (pending_.empty() || pending_.begin()->when > until)
                break;
            const Tick w = pending_.begin()->when;
            const Tick limit = std::min(w + lookahead - 1, until);
            while (!pending_.empty() && pending_.begin()->when <= limit) {
                const Ev ev = *pending_.begin();
                pending_.erase(pending_.begin());
                now_ = ev.when;
                if (ev.arrival) {
                    push(dev_.xbar(ev.unit).transfer(now_, ev.bits), false,
                         ev.unit, ev.id, 0);
                } else {
                    fire(*this, ev.unit, ev.id);
                }
            }
            ++window_;
            ++windows;
        }
        running_ = false;
    }

    /** (unit, tick) of every pending arrival. */
    std::vector<std::pair<UnitId, Tick>>
    pendingArrivals() const
    {
        std::vector<std::pair<UnitId, Tick>> out;
        for (const Ev &ev : pending_)
            if (ev.arrival)
                out.emplace_back(ev.unit, ev.when);
        return out;
    }

    std::vector<Fired> all;
    std::vector<std::vector<Fired>> perUnit;
    std::uint64_t windows = 0;
    // Coverage of the order's corner cases.
    unsigned sameTickSources = 0;   ///< same-tick arrivals, two sources
    unsigned onLocalTick = 0;       ///< arrival on a same-window local
    unsigned postsBetweenRuns = 0;

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        bool arrival;
        UnitId unit;
        std::uint32_t id;
        std::uint32_t bits;
        std::uint64_t window; ///< window it was scheduled in

        bool
        operator<(const Ev &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    struct Post
    {
        Tick when;
        UnitId src;
        std::uint64_t seq;
        UnitId to;
        std::uint32_t bits;
        std::uint32_t id;
        std::uint64_t window;
    };

    void
    push(Tick when, bool arrival, UnitId u, std::uint32_t id,
         std::uint32_t bits)
    {
        ASSERT_GE(when, now_);
        pending_.insert(Ev{when, seq_++, arrival, u, id, bits, window_});
    }

    void
    drain()
    {
        std::sort(outbox_.begin(), outbox_.end(),
                  [](const Post &a, const Post &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.seq < b.seq;
                  });
        for (std::size_t i = 0; i < outbox_.size(); ++i) {
            const Post &p = outbox_[i];
            if (i > 0 && outbox_[i - 1].when == p.when
                && outbox_[i - 1].to == p.to && outbox_[i - 1].src != p.src)
                ++sameTickSources;
            for (auto it = pending_.lower_bound(Ev{p.when, 0, false, 0, 0,
                                                   0, 0});
                 it != pending_.end() && it->when == p.when; ++it) {
                if (!it->arrival && it->unit == p.to
                    && it->window == p.window)
                    ++onLocalTick;
            }
            push(p.when, true, p.to, p.id, p.bits);
        }
        outbox_.clear();
    }

    Machine dev_; ///< crossbars and links only
    std::set<Ev> pending_;
    std::vector<Post> outbox_;
    std::array<std::uint64_t, kRefUnits> unitSeq_{};
    std::uint64_t seq_ = 0;
    std::uint64_t window_ = 0;
    Tick now_ = 0;
    bool running_ = false;
};

/** The traffic program on a real Machine driven by ShardedKernel. */
class MachineWorld : public World
{
  public:
    explicit MachineWorld(const SystemConfig &cfg)
        : m(cfg), kernel(m.shardQueues(), m.lookahead(), m),
          perUnit(kRefUnits)
    {
    }

    Tick now(UnitId u) override { return m.eq(u).now(); }

    void
    local(UnitId u, Tick when, std::uint32_t id) override
    {
        m.eq(u).schedule(when, [this, u, id] { fire(*this, u, id); });
    }

    void
    post(Tick start, UnitId from, UnitId to, std::uint32_t bits,
         std::uint32_t id) override
    {
        m.postMessage(start, from, to, bits,
                      [this, to, id] { fire(*this, to, id); });
    }

    void
    log(UnitId u, std::uint32_t id) override
    {
        // Each unit's log is touched only by its own shard's thread; the
        // global log only exists on one thread.
        perUnit[u].push_back(Fired{u, m.eq(u).now(), id});
        if (m.numShards() == 1)
            all.push_back(perUnit[u].back());
    }

    Machine m;
    ShardedKernel kernel;
    std::vector<Fired> all;
    std::vector<std::vector<Fired>> perUnit;
};

using Aims = std::vector<std::pair<UnitId, Tick>>;

/**
 * Seeds, three bounded runs with traffic injected between them, and a
 * final unbounded run. Between runs, local events also land on the
 * ticks @p aims returns for that gap — the oracle's pending arrivals —
 * so they collide with deliveries posted in the run's last window.
 */
template <typename RunTo, typename AimsAt>
void
driveTraffic(World &w, std::uint64_t seed, RunTo runTo, AimsAt aimsAt)
{
    std::uint64_t r = mix(seed);
    auto next = [&r] { return r = mix(r); };
    // Every unit starts on the same ticks, so posts collide.
    auto inject = [&](Tick base, bool withPosts) {
        for (unsigned j = 0; j < 6; ++j) {
            for (UnitId u = 0; u < kRefUnits; ++u) {
                const auto id =
                    static_cast<std::uint32_t>(next() & 0xffffff);
                w.local(u, base + j * (w.lookahead / 2), id);
                if (withPosts)
                    w.post(base, u, (u + 1 + j) % kRefUnits, 64,
                           static_cast<std::uint32_t>(next() & 0xffffff));
            }
        }
    };
    inject(0, false);
    Tick until = 0;
    for (unsigned gap = 0; gap < 3; ++gap) {
        until += 3 * w.lookahead + next() % w.lookahead;
        runTo(until);
        // Between runs: local events on pending arrival ticks (one
        // generation of children, which contend for the arrival's
        // crossbar), local seeds, and posts from outside any window.
        for (const auto &[u, when] : aimsAt(gap))
            w.local(u, when, ((kRefGenerations - 1) << 24) | gap);
        inject(until + 1, true);
    }
    runTo(kTickNever);
}

TEST(ReferenceOrder, KeyedDeliveryMatchesDrainOrderAtEveryShardCount)
{
    const SystemConfig base = SystemConfig::make(Scheme::SynCron,
                                                 kRefUnits, 1);
    Tick hop = 0;
    {
        Machine probe(base);
        hop = probe.links().send(probe.xbar(0).transfer(0, 64), 0, 1, 8);
    }
    unsigned sameTickSources = 0;
    unsigned onLocalTick = 0;
    unsigned aimed = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Oracle ref(base);
        ref.lookahead = Machine(base).lookahead();
        ref.hop = hop;
        std::vector<Aims> aims;
        driveTraffic(
            ref, seed, [&ref](Tick until) { ref.run(until); },
            [&ref, &aims](unsigned) -> const Aims & {
                aims.push_back(ref.pendingArrivals());
                return aims.back();
            });
        for (const Aims &a : aims)
            aimed += static_cast<unsigned>(a.size());
        ASSERT_GT(ref.all.size(), 1000u);
        EXPECT_GT(ref.postsBetweenRuns, 0u);
        sameTickSources += ref.sameTickSources;
        onLocalTick += ref.onLocalTick;

        for (const unsigned shards : {1u, 2u, 4u}) {
            SystemConfig cfg = base;
            cfg.simShards = shards;
            MachineWorld real(cfg);
            ASSERT_EQ(real.m.numShards(), shards);
            real.lookahead = real.m.lookahead();
            real.hop = hop;
            driveTraffic(
                real, seed,
                [&real](Tick until) { real.kernel.run(until); },
                [&aims](unsigned gap) -> const Aims & {
                    return aims[gap];
                });
            const std::string what = "seed " + std::to_string(seed)
                                     + " at " + std::to_string(shards)
                                     + " shard(s)";
            for (UnitId u = 0; u < kRefUnits; ++u) {
                EXPECT_TRUE(real.perUnit[u] == ref.perUnit[u])
                    << what << ", unit " << u;
            }
            if (shards == 1) {
                EXPECT_TRUE(real.all == ref.all) << what;
            }
            EXPECT_EQ(real.kernel.windows(), ref.windows) << what;
        }
    }
    // The traffic reached the corner cases the key exists for.
    EXPECT_GT(sameTickSources, 0u);
    EXPECT_GT(onLocalTick, 0u);
    EXPECT_GT(aimed, 0u);
    std::printf("same-tick arrivals from two sources: %u, arrivals on a "
                "same-window local tick: %u, between-run locals on an "
                "arrival tick: %u\n",
                sameTickSources, onLocalTick, aimed);
}

} // namespace
} // namespace syncron::sim

// -- Grid determinism --------------------------------------------------

namespace syncron::harness {
namespace {

std::vector<std::function<RunOutput()>>
smallGrid()
{
    const Scheme schemes[] = {Scheme::Central, Scheme::Hier,
                              Scheme::SynCron, Scheme::Ideal};
    const DsKind kinds[] = {DsKind::Stack, DsKind::HashTable};
    std::vector<std::function<RunOutput()>> tasks;
    for (DsKind kind : kinds) {
        for (Scheme scheme : schemes) {
            tasks.push_back([kind, scheme] {
                SystemConfig cfg = SystemConfig::make(scheme, 2, 4);
                return runDataStructure(cfg, kind, 32, 4);
            });
        }
    }
    return tasks;
}

TEST(Grid, ParallelRunsMatchSerialExactly)
{
    const auto serial = runGrid(smallGrid(), 1);
    const auto parallel = runGrid(smallGrid(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].time, parallel[i].time) << "config " << i;
        EXPECT_EQ(serial[i].ops, parallel[i].ops) << "config " << i;
        EXPECT_EQ(serial[i].stats.syncOps, parallel[i].stats.syncOps);
        EXPECT_EQ(serial[i].stats.dramReads,
                  parallel[i].stats.dramReads);
        EXPECT_EQ(serial[i].stats.syncLocalMsgs,
                  parallel[i].stats.syncLocalMsgs);
        EXPECT_EQ(serial[i].hostEvents, parallel[i].hostEvents);
    }
}

TEST(Grid, TaskExceptionsPropagate)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back([] { return 1; });
    tasks.push_back([]() -> int {
        throw std::runtime_error("boom");
    });
    tasks.push_back([] { return 3; });
    EXPECT_THROW(runGrid(tasks, 2), std::runtime_error);
    EXPECT_THROW(runGrid(tasks, 1), std::runtime_error);
}

TEST(Grid, ResultsKeepSubmissionOrder)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 40; ++i)
        tasks.push_back([i] { return i; });
    const auto out = runGrid(tasks, 8);
    ASSERT_EQ(out.size(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(out[i], i);
}

} // namespace
} // namespace syncron::harness
