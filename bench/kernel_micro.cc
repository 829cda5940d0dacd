/**
 * @file
 * Kernel microbenchmark: host-side events/sec of the timing-wheel
 * simulation kernel (sim::EventQueue) against the seed kernel it
 * replaced — std::function callbacks in a binary-heap
 * std::priority_queue, reimplemented here verbatim as LegacyEventQueue
 * so the comparison stays honest as the real kernel evolves.
 *
 * Three scenarios bracket the kernel's real workload:
 *   resume  — 8-byte captures (a coroutine handle), the common case for
 *             core resumes; fits the legacy std::function's SSO, so the
 *             delta is pure queue-structure cost.
 *   device  — 56-byte captures (engine/overflow-style callbacks: this,
 *             station, typed request, gate); the legacy kernel heap-
 *             allocates every one of these.
 *   far     — the traffic of perfbench's lock_openloop, which files
 *             about 8.6 % of its events in the overflow heap and keeps
 *             it about 180 deep: 184 devices reschedule just past the
 *             wheel's span (EventQueue::kSpanTicks), so each of their
 *             events is filed in and served from the heap, next to 8
 *             near devices. A far device fires once per ~0.27 us, a
 *             near one about every 1 ns, so the heap serves about 7 %
 *             of the events.
 *
 * The overall events/sec ratio is the gating number (>= 2x). The
 * share of events the wheel serves from its overflow heap is printed,
 * and the bench also fails when the far scenario's share is below 5 %,
 * so a geometry change cannot silently turn "far" into a near-only
 * measurement.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/table.hh"
#include "sim/event_queue.hh"

using namespace syncron;
using harness::fmt;
using harness::fmtX;

namespace {

/** The seed kernel, kept as the measurement baseline. */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }

    void
    schedule(Tick when, Callback cb)
    {
        events_.push(Event{when, nextSeq_++, std::move(cb)});
    }

    void scheduleIn(Tick delta, Callback cb) { schedule(now_ + delta, std::move(cb)); }

    Tick
    run(Tick until = kTickNever)
    {
        while (!events_.empty() && events_.top().when <= until) {
            Event ev = std::move(const_cast<Event &>(events_.top()));
            events_.pop();
            now_ = ev.when;
            ev.cb();
        }
        return now_;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> events_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/** 8-byte capture: the shape of a coroutine-resume event. */
template <typename Q>
struct ResumeState
{
    Q *q;
    std::uint64_t *remaining;
    Tick delta;
};

template <typename Q>
void
resumeEvent(ResumeState<Q> *s)
{
    if (*s->remaining == 0)
        return;
    --*s->remaining;
    s->q->scheduleIn(s->delta, [s] { resumeEvent(s); });
}

/** 56-byte capture: the shape of an engine/overflow device callback. */
struct DevicePayload
{
    std::uint64_t words[4];
};

template <typename Q>
void
deviceEvent(Q &q, std::uint64_t &remaining, Tick delta,
            DevicePayload payload)
{
    if (remaining == 0)
        return;
    --remaining;
    payload.words[0] += payload.words[1] ^ q.now();
    q.scheduleIn(delta, [&q, &remaining, delta, payload] {
        deviceEvent(q, remaining, delta, payload);
    });
}

struct ScenarioResult
{
    std::uint64_t events = 0;
    double seconds = 0.0;
    std::uint64_t heapEvents = 0; ///< served from the heap (wheel only)

    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds
                             : 0.0;
    }
};

/** Concurrent event population (heap depth / wheel load). */
constexpr unsigned kDevices = 1024;

/** Device-model latencies in ticks (core cycle, SPU cycle, xbar hop,
 *  pipelined DRAM, row miss); all within the wheel's span. */
constexpr Tick kNearDeltas[] = {400, 1000, 1600, 2800, 12000};

/** The far scenario's devices: a few near ones among many far ones. */
constexpr unsigned kFarNearDevices = 8;
constexpr unsigned kFarDevices = 184;

/** Just past the wheel's span from any now(): overflow-heap territory.
 *  Device i adds 1000 * (i % 7) ticks on top. */
constexpr Tick kFarDelta = sim::EventQueue::kSpanTicks;

/** The least share of far-scenario events the heap must serve. */
constexpr double kMinFarHeapShare = 0.05;

template <typename Q, typename Seed>
ScenarioResult
runScenario(std::uint64_t events, Seed seed)
{
    Q q;
    std::uint64_t remaining = events;
    seed(q, remaining);
    const auto start = std::chrono::steady_clock::now();
    q.run();
    const auto stop = std::chrono::steady_clock::now();
    SYNCRON_ASSERT(remaining == 0, "scenario ended early");

    ScenarioResult r;
    r.events = events;
    r.seconds =
        std::chrono::duration<double>(stop - start).count();
    if constexpr (requires { q.heapEvents(); })
        r.heapEvents = q.heapEvents();
    return r;
}

template <typename Q>
ScenarioResult
runResume(std::uint64_t events)
{
    std::vector<ResumeState<Q>> states(kDevices);
    return runScenario<Q>(events, [&](Q &q, std::uint64_t &remaining) {
        for (unsigned i = 0; i < kDevices; ++i) {
            states[i] = ResumeState<Q>{
                &q, &remaining,
                kNearDeltas[i % std::size(kNearDeltas)]};
            resumeEvent(&states[i]);
        }
    });
}

template <typename Q>
ScenarioResult
runDevice(std::uint64_t events)
{
    return runScenario<Q>(events, [&](Q &q, std::uint64_t &remaining) {
        for (unsigned i = 0; i < kDevices; ++i) {
            deviceEvent(q, remaining,
                        kNearDeltas[i % std::size(kNearDeltas)],
                        DevicePayload{{i, i + 1, i + 2, i + 3}});
        }
    });
}

template <typename Q>
ScenarioResult
runFar(std::uint64_t events)
{
    return runScenario<Q>(events, [&](Q &q, std::uint64_t &remaining) {
        for (unsigned i = 0; i < kFarNearDevices + kFarDevices; ++i) {
            const Tick delta =
                i < kFarNearDevices
                    ? kNearDeltas[i % std::size(kNearDeltas)]
                    : kFarDelta + 1000 * (i % 7);
            deviceEvent(q, remaining, delta,
                        DevicePayload{{i, i + 1, i + 2, i + 3}});
        }
    });
}

int
run(harness::Bench &bench)
{
    const auto events = static_cast<std::uint64_t>(
        2'000'000 * bench.opts().scale);

    struct Scenario
    {
        const char *name;
        ScenarioResult (*legacy)(std::uint64_t);
        ScenarioResult (*wheel)(std::uint64_t);
        bool usesHeap; ///< the wheel must serve kMinFarHeapShare from
                       ///< its heap
    };
    const Scenario scenarios[] = {
        {"resume (8B capture)", runResume<LegacyEventQueue>,
         runResume<sim::EventQueue>, false},
        {"device (56B capture)", runDevice<LegacyEventQueue>,
         runDevice<sim::EventQueue>, false},
        {"far (overflow heap)", runFar<LegacyEventQueue>,
         runFar<sim::EventQueue>, true},
    };

    harness::TablePrinter table(
        "kernel_micro: host events/sec, seed kernel vs timing wheel",
        {"scenario", "legacy [Mev/s]", "wheel [Mev/s]", "speedup",
         "heap share"});

    bench.metric("eventsPerScenario", static_cast<double>(events));
    double legacySec = 0, wheelSec = 0;
    std::uint64_t totalEvents = 0;
    bool heapPathRan = true;

    for (const Scenario &s : scenarios) {
        // Warm each kernel once (page-faults, pool growth), then time.
        s.legacy(events / 10);
        s.wheel(events / 10);
        const ScenarioResult l = s.legacy(events);
        const ScenarioResult w = s.wheel(events);
        const std::string key = std::string(s.name) + "/";
        bench.metric(key + "legacyEventsPerSec", l.eventsPerSec());
        bench.metric(key + "wheelEventsPerSec", w.eventsPerSec());
        bench.metric(key + "speedup", l.seconds / w.seconds);
        const double heapShare = static_cast<double>(w.heapEvents)
                                 / static_cast<double>(w.events);
        bench.metric(key + "wheelHeapEvents",
                     static_cast<double>(w.heapEvents));
        bench.metric(key + "wheelHeapShare", heapShare);
        if (s.usesHeap && heapShare < kMinFarHeapShare)
            heapPathRan = false;
        legacySec += l.seconds;
        wheelSec += w.seconds;
        totalEvents += events;
        table.addRow({s.name, fmt(l.eventsPerSec() / 1e6, 2),
                      fmt(w.eventsPerSec() / 1e6, 2),
                      fmtX(l.seconds / w.seconds),
                      fmt(100.0 * heapShare, 1) + " %"});
    }

    const double legacyRate =
        static_cast<double>(totalEvents) / legacySec;
    const double wheelRate = static_cast<double>(totalEvents) / wheelSec;
    table.addNote("overall: legacy " + fmt(legacyRate / 1e6, 2)
                  + " Mev/s, wheel " + fmt(wheelRate / 1e6, 2)
                  + " Mev/s");
    table.print(std::cout);
    std::cout << "kernel_micro overall speedup: "
              << fmtX(wheelRate / legacyRate) << " (gate: >= 2.00x)\n";
    if (!heapPathRan)
        std::cout << "kernel_micro: the far scenario served too few "
                     "events from the overflow heap (gate: >= "
                  << fmt(100.0 * kMinFarHeapShare, 0) << " %)\n";

    bench.metric("overall/legacyEventsPerSec", legacyRate);
    bench.metric("overall/wheelEventsPerSec", wheelRate);
    bench.metric("overall/speedup", wheelRate / legacyRate);
    return wheelRate / legacyRate >= 2.0 && heapPathRan ? 0 : 1;
}

} // namespace

SYNCRON_BENCH("kernel_micro", run)
