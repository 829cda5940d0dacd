/**
 * @file
 * Sharded-simulation tests.
 *
 * Two layers:
 *  - ShardedKernel mechanics: conservative windows sized by the
 *    lookahead, every shard stepped on the calling thread, cross-shard
 *    posts landing in later windows, self-opened windows at one shard,
 *    and the rejection of a zero lookahead.
 *  - The bit-identity contract: a machine split into shards
 *    (--sim-shards) must reproduce the single-queue run exactly —
 *    same final tick, same operation counts, same SystemStats, same
 *    per-OpKind latency histograms, the same lookahead windows — on
 *    every shardable backend, with
 *    the sync-correctness analyzer attached and finding nothing.
 *  - Observer lanes: on a sharded machine every registered observer
 *    runs between windows and sees one merged stream,
 *    the same at every shard count.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "sim/event_queue.hh"
#include "sim/sharded_kernel.hh"
#include "system/system.hh"
#include "trace/replay.hh"
#include "trace/scenario.hh"
#include "workloads/datastructures/structures.hh"

namespace syncron {
namespace {

// -- ShardedKernel mechanics -------------------------------------------

/** Client that only counts window callouts. */
class CountingClient : public sim::ShardedKernel::Client
{
  public:
    void windowBegin() override { ++begins; }
    void windowEnd() override { ++ends; }

    int begins = 0;
    int ends = 0;
};

TEST(ShardedKernel, SingleShardDegeneratesToSerialStepping)
{
    sim::EventQueue q;
    std::vector<Tick> fired;
    for (Tick t : {Tick{5}, Tick{100}, Tick{100000}})
        q.schedule(t, [&fired, t] { fired.push_back(t); });

    CountingClient client;
    sim::ShardedKernel kernel({&q}, 1000, client);
    EXPECT_EQ(kernel.shards(), 1u);
    EXPECT_EQ(kernel.run(), 100000u);
    EXPECT_EQ(fired, (std::vector<Tick>{5, 100, 100000}));
    // The queue opens the lookahead windows itself — [5, 1004] holds 5
    // and 100 — with no coordinator window or horizon poll.
    EXPECT_EQ(kernel.windows(), 2u);
    EXPECT_EQ(client.begins, 0);
    EXPECT_EQ(client.ends, 0);
}

TEST(ShardedKernel, WindowsCoverLookaheadAndStopAtHorizon)
{
    // Two shards, lookahead 100: events at {0, 99} fit one window;
    // the stragglers at 250 (shard 0) and 260 (shard 1) share the next.
    sim::EventQueue q0;
    sim::EventQueue q1;
    std::vector<std::pair<int, Tick>> fired0;
    std::vector<std::pair<int, Tick>> fired1;
    q0.schedule(0, [&] { fired0.emplace_back(0, Tick{0}); });
    q1.schedule(99, [&] { fired1.emplace_back(1, Tick{99}); });
    q0.schedule(250, [&] { fired0.emplace_back(0, Tick{250}); });
    q1.schedule(260, [&] { fired1.emplace_back(1, Tick{260}); });

    CountingClient client;
    sim::ShardedKernel kernel({&q0, &q1}, 100, client);
    EXPECT_EQ(kernel.shards(), 2u);
    EXPECT_EQ(kernel.run(), 260u);
    EXPECT_EQ(kernel.windows(), 2u);
    EXPECT_EQ(client.begins, 2);
    EXPECT_EQ(client.ends, 2);
    EXPECT_EQ(fired0,
              (std::vector<std::pair<int, Tick>>{{0, 0}, {0, 250}}));
    EXPECT_EQ(fired1,
              (std::vector<std::pair<int, Tick>>{{1, 99}, {1, 260}}));
}

TEST(ShardedKernel, BoundedRunLeavesLaterEventsQueued)
{
    sim::EventQueue q0;
    sim::EventQueue q1;
    int ran = 0;
    q0.schedule(10, [&] { ++ran; });
    q1.schedule(5000, [&] { ++ran; });

    CountingClient client;
    sim::ShardedKernel kernel({&q0, &q1}, 50, client);
    kernel.run(1000);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(q1.pending(), 1u);
    kernel.run();
    EXPECT_EQ(ran, 2);
}

/** Client that numbers the windows, so a callback can tell which one
 *  it runs in. */
class WindowCountingClient : public sim::ShardedKernel::Client
{
  public:
    void windowBegin() override { ++window; }

    int window = 0;
};

TEST(ShardedKernel, CrossShardPostsLandInLaterWindows)
{
    // Shard 0 files a message straight into shard 1's queue from inside
    // a window, before shard 1 runs it; shard 1 answers into shard 0's
    // queue, which has already run the window. The stamp (now +
    // lookahead) puts each arrival past the window it was posted in,
    // so neither runs early and neither lands in a shard's past.
    constexpr Tick kLookahead = 200;
    sim::EventQueue q0;
    sim::EventQueue q1;
    WindowCountingClient client;
    std::vector<std::pair<int, int>> postedRan; // (post window, run window)
    q0.schedule(10, [&] {
        const int posted = client.window;
        q1.schedule(q0.now() + kLookahead, [&, posted] {
            postedRan.emplace_back(posted, client.window);
            const int answered = client.window;
            q0.schedule(q1.now() + kLookahead, [&, answered] {
                postedRan.emplace_back(answered, client.window);
            });
        });
    });

    sim::ShardedKernel kernel({&q0, &q1}, kLookahead, client);
    kernel.run();
    EXPECT_EQ(postedRan, (std::vector<std::pair<int, int>>{{1, 2}, {2, 3}}));
    EXPECT_EQ(q1.now(), 210u);
    EXPECT_EQ(q0.now(), 410u);
    EXPECT_EQ(q1.executed(), 1u);
    EXPECT_EQ(q0.executed(), 2u);
    EXPECT_EQ(kernel.windows(), 3u);
}

/** Forwards a token around the units' ring with postMessage(),
 *  recording the host thread of every callback. */
struct RingToken
{
    Machine *m = nullptr;
    unsigned hops = 0;
    UnitId at = 0;
    std::vector<std::thread::id> *threads = nullptr;
};

void
forwardRingToken(RingToken *t)
{
    t->threads->push_back(std::this_thread::get_id());
    if (t->hops == 0)
        return;
    --t->hops;
    const UnitId from = t->at;
    t->at = (from + 1) % t->m->config().numUnits;
    t->m->postMessage(t->m->eq(from).now(), from, t->at, 64,
                      [t] { forwardRingToken(t); });
}

TEST(ShardedKernel, FourShardRunStaysOnTheCallingThread)
{
    // Every shard's window runs on the thread that called run(): no
    // callback of a 4-shard run, local or cross-shard, sees another.
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 1);
    cfg.simShards = 4;
    Machine m(cfg);
    ASSERT_EQ(m.numShards(), 4u);
    CountingClient client;
    sim::ShardedKernel kernel(m.shardQueues(), m.lookahead(), client);

    std::vector<std::thread::id> threads;
    std::array<RingToken, 8> tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const auto u = static_cast<UnitId>(i % cfg.numUnits);
        tokens[i] = RingToken{&m, 40, u, &threads};
        m.eq(u).schedule(100 * i,
                         [t = &tokens[i]] { forwardRingToken(t); });
    }
    kernel.run();
    for (const RingToken &t : tokens)
        EXPECT_EQ(t.hops, 0u);
    ASSERT_EQ(threads.size(), tokens.size() * 41);
    EXPECT_GT(kernel.windows(), 40u);
    const std::thread::id self = std::this_thread::get_id();
    for (const std::thread::id &id : threads)
        EXPECT_EQ(id, self);
}

TEST(ShardedKernel, FailuresRethrowLowestShardFirst)
{
    // Shards run their window in index order, so a window in which
    // several shards fault reports the lowest-numbered one. The shards
    // after it have not run the window yet; the next run() resumes them
    // and nothing is lost, and the kernel stays usable afterwards.
    sim::EventQueue q0;
    sim::EventQueue q1;
    sim::EventQueue q2;
    q2.schedule(10, [] { throw std::runtime_error("shard 2"); });
    q1.schedule(10, [] { throw std::runtime_error("shard 1"); });
    q0.schedule(500, [] { throw std::runtime_error("shard 0"); });
    q2.schedule(505, [] { throw std::runtime_error("shard 2 again"); });
    int ran = 0;
    q1.schedule(900, [&] { ++ran; });

    CountingClient client;
    sim::ShardedKernel kernel({&q0, &q1, &q2}, 100, client);
    auto failure = [&kernel]() -> std::string {
        try {
            kernel.run();
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "";
    };
    EXPECT_EQ(failure(), "shard 1");
    EXPECT_EQ(failure(), "shard 2");
    EXPECT_EQ(failure(), "shard 0");
    EXPECT_EQ(failure(), "shard 2 again");
    EXPECT_EQ(failure(), "");
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(client.begins, client.ends);
}

TEST(ShardedKernel, ZeroLookaheadIsRejected)
{
    sim::EventQueue q0;
    CountingClient client;
    // No conservative window exists without lookahead, at any shard
    // count: the coordinator refuses it...
    EXPECT_THROW(sim::ShardedKernel({&q0}, 0, client), std::logic_error);

    // ...and so does a machine whose crossbar and links are all free.
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 1);
    cfg.xbar.cyclePeriod = 0;
    cfg.link.ctrlCycles = 0;
    cfg.link.flightTicks = 0;
    EXPECT_THROW(Machine m(cfg), std::runtime_error);
}

// -- Bit-identity contract ---------------------------------------------

void
expectSameStats(const SystemStats &a, const SystemStats &b,
                const std::string &what)
{
    // Scalar counters via the canonical visitor...
    std::vector<std::pair<std::string, double>> fa;
    std::vector<std::pair<std::string, double>> fb;
    a.forEach([&](const std::string &n, double v) {
        fa.emplace_back(n, v);
    });
    b.forEach([&](const std::string &n, double v) {
        fb.emplace_back(n, v);
    });
    EXPECT_EQ(fa, fb) << what;
    // ...and the full per-OpKind latency histograms, which the visitor
    // only summarizes.
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
        const SyncOpLatency &la = a.syncLatency[k];
        const SyncOpLatency &lb = b.syncLatency[k];
        EXPECT_EQ(la.count, lb.count) << what << " opKind " << k;
        EXPECT_EQ(la.totalTicks, lb.totalTicks) << what << " opKind "
                                                << k;
        EXPECT_EQ(la.minTicks, lb.minTicks) << what << " opKind " << k;
        EXPECT_EQ(la.maxTicks, lb.maxTicks) << what << " opKind " << k;
        EXPECT_EQ(la.hist, lb.hist) << what << " opKind " << k;
    }
}

void
expectIdentical(const harness::RunOutput &a, const harness::RunOutput &b,
                const std::string &what)
{
    EXPECT_EQ(a.time, b.time) << what;
    EXPECT_EQ(a.ops, b.ops) << what;
    EXPECT_EQ(a.overflowedReqs, b.overflowedReqs) << what;
    EXPECT_EQ(a.totalReqs, b.totalReqs) << what;
    // The single queue opens its own windows; the coordinator opens them
    // at several shards. Both must walk the same window sequence.
    EXPECT_EQ(a.hostWindows, b.hostWindows) << what;
    EXPECT_GT(a.hostWindows, 0u) << what;
    EXPECT_EQ(a.hostEvents, b.hostEvents) << what;
    expectSameStats(a.stats, b.stats, what);
}

/** 8 units x 2 cores: at 2 and 4 shards every run crosses shard
 *  boundaries on both sync traffic and remote memory traffic. */
SystemConfig
shardedCfg(Scheme scheme, unsigned shards)
{
    SystemConfig cfg = SystemConfig::make(scheme, 8, 2);
    cfg.simShards = shards;
    // The analyzer rides along on every identity run: its findings are
    // part of the contract (zero, at every shard count), and the
    // observer lanes are exercised by the same runs.
    cfg.analyze = true;
    return cfg;
}

class ShardIdentityTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(ShardIdentityTest, PrimitiveMicrosAreBitIdentical)
{
    for (workloads::Primitive prim :
         {workloads::Primitive::Lock, workloads::Primitive::Barrier,
          workloads::Primitive::Semaphore,
          workloads::Primitive::CondVar}) {
        const harness::RunOutput ref = harness::runPrimitive(
            shardedCfg(GetParam(), 1), prim, 100, 6);
        for (unsigned shards : {2u, 4u}) {
            const harness::RunOutput out = harness::runPrimitive(
                shardedCfg(GetParam(), shards), prim, 100, 6);
            expectIdentical(ref, out,
                            std::string(primitiveName(prim)) + " @"
                                + std::to_string(shards) + " shards");
        }
    }
}

TEST_P(ShardIdentityTest, DataStructuresAreBitIdentical)
{
    // One structure per locking regime: coarse high-contention (Stack),
    // fine-grained with optimistic traversal (SkipList), and
    // hand-over-hand chains (LinkedList).
    struct Case
    {
        harness::DsKind kind;
        unsigned size;
        unsigned ops;
    };
    for (const Case &c : {Case{harness::DsKind::Stack, 64, 8},
                          Case{harness::DsKind::SkipList, 96, 6},
                          Case{harness::DsKind::LinkedList, 48, 6}}) {
        const harness::RunOutput ref = harness::runDataStructure(
            shardedCfg(GetParam(), 1), c.kind, c.size, c.ops);
        for (unsigned shards : {2u, 4u}) {
            const harness::RunOutput out = harness::runDataStructure(
                shardedCfg(GetParam(), shards), c.kind, c.size, c.ops);
            expectIdentical(ref, out,
                            std::string(harness::dsName(c.kind)) + " @"
                                + std::to_string(shards) + " shards");
        }
    }
}

TEST_P(ShardIdentityTest, ReplicationIsBitIdentical)
{
    workloads::ReplicationParams params;
    params.epochs = 3;
    params.opsPerEpoch = 4;
    const harness::RunOutput ref =
        harness::runReplication(shardedCfg(GetParam(), 1), params);
    for (unsigned shards : {2u, 4u}) {
        const harness::RunOutput out = harness::runReplication(
            shardedCfg(GetParam(), shards), params);
        expectIdentical(ref, out,
                        "replication @" + std::to_string(shards)
                            + " shards");
    }
}

TEST_P(ShardIdentityTest, ScenarioReplaysAreBitIdentical)
{
    // Each replayed core paces its trace timestamps on its own unit's
    // clock; a clock read from any other shard's queue drifts with the
    // shard count.
    for (trace::ScenarioFamily family : trace::kAllScenarioFamilies) {
        trace::ScenarioSpec spec;
        spec.family = family;
        spec.numUnits = 8;
        spec.clientCoresPerUnit = 2;
        spec.opsPerCore = 8;
        const trace::Trace t = trace::ScenarioGenerator(spec).generate();
        const auto replay = [&t](unsigned shards) {
            SystemConfig cfg = trace::replayConfig(t, GetParam());
            cfg.simShards = shards;
            cfg.analyze = true;
            return harness::runTrace(cfg, t);
        };
        const harness::RunOutput ref = replay(1);
        EXPECT_EQ(ref.ops, t.records.size());
        expectIdentical(ref, replay(4),
                        std::string(trace::scenarioFamilyName(family))
                            + " @4 shards");
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardIdentityTest,
                         ::testing::Values(Scheme::SynCron,
                                           Scheme::Central),
                         [](const auto &info) {
                             return std::string(
                                 schemeName(info.param));
                         });

// -- Observer lanes ----------------------------------------------------

/** A plain observer: it records every hook call and counts calls made
 *  while a sharded window is in flight. */
class RecordingObserver : public sync::OpObserver
{
  public:
    struct Event
    {
        Tick tick;
        CoreId core;
        char kind; ///< 'I'ssue, 'C'omplete, 'A'ccess

        bool operator==(const Event &) const = default;
    };

    void
    onIssue(CoreId core, const sync::SyncRequest &, Tick issued) override
    {
        add(issued, core, 'I');
    }
    void
    onComplete(CoreId core, const sync::SyncRequest &, Tick,
               Tick completed) override
    {
        add(completed, core, 'C');
    }
    void
    onAccess(CoreId core, Addr, bool, Tick now) override
    {
        add(now, core, 'A');
    }

    std::vector<Event>
    ofCore(CoreId core) const
    {
        std::vector<Event> out;
        for (const Event &e : events)
            if (e.core == core)
                out.push_back(e);
        return out;
    }

    const Machine *machine = nullptr;
    std::vector<Event> events;
    unsigned insideWindow = 0;

  private:
    void
    add(Tick tick, CoreId core, char kind)
    {
        if (machine->inShardedWindow())
            ++insideWindow;
        events.push_back({tick, core, kind});
    }
};

/** Runs @p S 's workers on 8 units x 2 cores under @p obs. */
template <typename S>
void
observeRun(unsigned shards, unsigned size, unsigned ops,
           RecordingObserver &obs)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 8, 2);
    cfg.simShards = shards;
    NdpSystem sys(cfg);
    ASSERT_EQ(sys.machine().numShards(), shards);
    obs.machine = &sys.machine();
    sys.api().addObserver(&obs);
    S s(sys, size);
    for (unsigned i = 0; i < sys.numClientCores(); ++i) {
        core::Core &c = sys.clientCore(i);
        sys.spawn(s.worker(c, ops), c);
    }
    sys.run();
}

/** Checks the sharded streams against each other and the 1-shard one;
 *  returns the event kinds seen. */
template <typename S>
std::set<char>
expectOneStreamAtEveryShardCount(const char *name, unsigned size,
                                 unsigned ops)
{
    RecordingObserver ref;
    observeRun<S>(1, size, ops, ref);
    std::set<CoreId> cores;
    std::set<char> kinds;
    for (const RecordingObserver::Event &e : ref.events) {
        cores.insert(e.core);
        kinds.insert(e.kind);
    }
    EXPECT_EQ(cores.size(), 16u) << name;
    std::vector<RecordingObserver::Event> atTwo;
    for (unsigned shards : {2u, 4u, 8u}) {
        const std::string what =
            std::string(name) + " @" + std::to_string(shards) + " shards";
        RecordingObserver obs;
        observeRun<S>(shards, size, ops, obs);
        EXPECT_EQ(obs.insideWindow, 0u) << what;
        if (shards == 2)
            atTwo = obs.events;
        EXPECT_TRUE(obs.events == atTwo) << what;
        EXPECT_EQ(obs.events.size(), ref.events.size()) << what;
        for (CoreId core : cores) {
            EXPECT_TRUE(obs.ofCore(core) == ref.ofCore(core))
                << what << " core " << core;
        }
    }
    return kinds;
}

TEST(ObserverLanes, OneMergedStreamOnOneThreadAtEveryShardCount)
{
    std::set<char> kinds =
        expectOneStreamAtEveryShardCount<workloads::SimStack>("stack", 64,
                                                              8);
    kinds.merge(expectOneStreamAtEveryShardCount<workloads::SimSkipList>(
        "skip list", 96, 6));
    kinds.merge(expectOneStreamAtEveryShardCount<workloads::SimLinkedList>(
        "linked list", 48, 6));
    EXPECT_EQ(kinds, (std::set<char>{'A', 'C', 'I'}));
}

// -- Shard-count resolution --------------------------------------------

TEST(ShardResolution, NonShardableBackendCollapsesToOneShard)
{
    // Ideal applies sync ops in place with no messages — there is no
    // lookahead-respecting transport to shard over, so the system must
    // quietly fall back to a single queue.
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 8, 2);
    cfg.simShards = 4;
    NdpSystem sys(cfg);
    EXPECT_EQ(sys.machine().numShards(), 1u);
}

TEST(ShardResolution, ShardCountClampsToUnitCount)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 2);
    cfg.simShards = 16;
    NdpSystem sys(cfg);
    EXPECT_LE(sys.machine().numShards(), 2u);
    EXPECT_GE(sys.machine().numShards(), 1u);
}

} // namespace
} // namespace syncron
