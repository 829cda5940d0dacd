/**
 * @file
 * SynCron-engine-specific tests: ST allocation/occupancy, hierarchical
 * aggregation, the overflow path (integrated and MiSAR-style), indexing
 * counters, determinism, and allocation-free steady-state lock rounds
 * (via a counting global operator new).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "syncron/engine.hh"
#include "syncron/indexing_counters.hh"
#include "syncron/sync_table.hh"
#include "system/system.hh"

#include "counting_alloc.hh"

namespace syncron {
namespace {

using core::Core;
using sync::SyncApi;

sim::Process
lockLoop(Core &c, SyncApi &api, sync::Lock lock, int iters,
         int *counter)
{
    for (int i = 0; i < iters; ++i) {
        co_await api.acquire(c, lock);
        ++*counter;
        co_await c.compute(20);
        co_await api.release(c, lock);
        co_await c.compute(30);
    }
}

TEST(SyncTable, AllocFindReleaseAndCapacity)
{
    SystemStats stats;
    engine::SyncTable table(2, stats, false);
    EXPECT_NE(table.alloc(0x100, 0), nullptr);
    EXPECT_NE(table.alloc(0x200, 10), nullptr);
    EXPECT_TRUE(table.full());
    EXPECT_EQ(table.alloc(0x300, 20), nullptr); // full
    EXPECT_NE(table.find(0x100), nullptr);
    table.release(0x100, 30);
    EXPECT_EQ(table.find(0x100), nullptr);
    EXPECT_FALSE(table.full());
    table.finalize(100);
    // Occupancy integral: 1*10 + 2*20 + 1*70 = 120 over 100 ticks.
    EXPECT_EQ(stats.stOccupancyIntegral, 120u);
    EXPECT_EQ(stats.stMaxOccupied, 2u);
}

TEST(SyncTable, ReleasingNonIdleEntryPanics)
{
    SystemStats stats;
    engine::SyncTable table(4, stats, false);
    engine::StEntry *e = table.alloc(0x100, 0);
    e->localWaitBits = 0b10;
    EXPECT_THROW(table.release(0x100, 10), std::logic_error);
}

TEST(IndexingCounters, AliasingSharesCounters)
{
    SystemStats stats;
    engine::IndexingCounters counters(256, stats, false);
    const Addr a = 0x40ull;             // line 1
    const Addr aliased = a + 256 * 64;  // same index, 256 lines later
    counters.increment(a);
    EXPECT_TRUE(counters.servicedViaMemory(a));
    EXPECT_TRUE(counters.servicedViaMemory(aliased)) << "aliases share";
    counters.decrement(aliased);
    EXPECT_FALSE(counters.servicedViaMemory(a));
    counters.decrement(a); // guarded at zero
    EXPECT_EQ(counters.value(a), 0u);
}

TEST(Engine, HierarchicalAggregationReducesGlobalTraffic)
{
    // All cores of one remote unit hammer one lock: the SE sends one
    // aggregated acquire/release pair per local episode, so global
    // messages must be far fewer than local ones.
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 8);
    NdpSystem sys(cfg);
    sync::Lock lock = sys.api().createLock(3); // mastered remotely
    int counter = 0;
    // Clients 0..7 are all in unit 0.
    for (unsigned i = 0; i < 8; ++i)
        sys.spawn(lockLoop(sys.clientCore(i), sys.api(), lock, 10,
                           &counter));
    sys.run();
    EXPECT_EQ(counter, 80);
    const SystemStats &st = sys.stats();
    EXPECT_GT(st.syncLocalMsgs, 0u);
    EXPECT_LT(st.syncGlobalMsgs, st.syncLocalMsgs / 4)
        << "hierarchy must aggregate cross-unit traffic";
}

TEST(Engine, StEntriesFreedAfterEpisodes)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
    NdpSystem sys(cfg);
    sync::Lock lock = sys.api().createLock(0);
    int counter = 0;
    for (unsigned i = 0; i < sys.numClientCores(); ++i)
        sys.spawn(lockLoop(sys.clientCore(i), sys.api(), lock, 5,
                           &counter));
    sys.run();
    engine::SynCronBackend *eng = sys.syncronBackend();
    ASSERT_NE(eng, nullptr);
    EXPECT_EQ(eng->stOccupied(0), 0u);
    EXPECT_EQ(eng->stOccupied(1), 0u);
    EXPECT_EQ(eng->overflowedRequests(), 0u);
    EXPECT_GT(sys.stats().stAllocs, 0u);
}

sim::Process
twoLockWorker(Core &c, SyncApi &api, const sync::LockSet &locks,
              unsigned ops, int *progress)
{
    // Hold two locks at once (hand-over-hand style) to pressure the ST.
    for (unsigned i = 0; i < ops; ++i) {
        const std::size_t a = c.rng().below(locks.size() - 1);
        co_await api.acquire(c, locks[a]);
        co_await api.acquire(c, locks[a + 1]);
        co_await c.compute(10);
        co_await api.release(c, locks[a + 1]);
        co_await api.release(c, locks[a]);
        ++*progress;
    }
}

class OverflowSchemeTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(OverflowSchemeTest, TinyStOverflowsButStaysCorrect)
{
    SystemConfig cfg = SystemConfig::make(GetParam(), 4, 8);
    cfg.stEntries = 4; // force heavy overflow
    NdpSystem sys(cfg);

    const sync::LockSet locks = sys.api().createLockSet(64);

    int progress = 0;
    const unsigned ops = 12;
    for (unsigned i = 0; i < sys.numClientCores(); ++i)
        sys.spawn(twoLockWorker(sys.clientCore(i), sys.api(), locks, ops,
                                &progress));
    sys.run();

    EXPECT_EQ(progress,
              static_cast<int>(sys.numClientCores() * ops));
    engine::SynCronBackend *eng = sys.syncronBackend();
    ASSERT_NE(eng, nullptr);
    EXPECT_GT(eng->overflowedRequests(), 0u)
        << "a 4-entry ST must overflow under 64 hot locks";
}

// -- One-entry STs: every primitive kind reaches the overflow path ------

/** A config whose STs hold one variable, with the live analyzer on. */
SystemConfig
tinyStConfig(Scheme scheme, unsigned units, unsigned cores)
{
    SystemConfig cfg = SystemConfig::make(scheme, units, cores);
    cfg.stEntries = 1;
    cfg.analyze = true;
    return cfg;
}

struct SemCount
{
    int available = 0; ///< resources posted minus resources granted
    int consumed = 0;
    bool negative = false;
};

sim::Process
semUser(Core &c, SyncApi &api, sync::Semaphore sem, bool consumer,
        int iters, std::uint64_t pace, SemCount &count)
{
    for (int i = 0; i < iters; ++i) {
        if (consumer) {
            co_await api.wait(c, sem);
            if (--count.available < 0)
                count.negative = true;
            ++count.consumed;
            co_await c.compute(15);
        } else {
            co_await c.compute(pace);
            ++count.available;
            co_await api.post(c, sem);
        }
    }
}

TEST_P(OverflowSchemeTest, TinyStOverflowsSemaphores)
{
    // Two semaphores homed in one unit: the master's single entry holds
    // one, so the other lives in its syncronVar record, and the other
    // units' single entries overflow too. Fast producers make batch
    // grants return their excess to a record the ST entry migrated
    // into; slow ones make waits queue in the record.
    for (std::uint64_t pace : {30u, 300u}) {
        SCOPED_TRACE("producer pace " + std::to_string(pace));
        SystemConfig cfg = tinyStConfig(GetParam(), 4, 4);
        NdpSystem sys(cfg);
        const sync::Semaphore sems[] = {sys.api().createSemaphore(2, 1),
                                        sys.api().createSemaphore(2, 1)};
        SemCount counts[2];
        for (SemCount &c : counts)
            c.available = 1;

        const int iters = 6;
        for (unsigned i = 0; i < sys.numClientCores(); ++i) {
            const unsigned which = i % 2;
            sys.spawn(semUser(sys.clientCore(i), sys.api(), sems[which],
                              (i / 2) % 2 == 0, iters, pace,
                              counts[which]));
        }
        sys.run();

        const int perSem =
            static_cast<int>(sys.numClientCores() / 4) * iters;
        for (const SemCount &c : counts) {
            EXPECT_FALSE(c.negative) << "a wait was granted with no resource";
            EXPECT_EQ(c.consumed, perSem);
            EXPECT_EQ(c.available, 1);
        }
        engine::SynCronBackend *eng = sys.syncronBackend();
        ASSERT_NE(eng, nullptr);
        EXPECT_GT(eng->overflowedRequests(), 0u);
    }
}

struct CondItems
{
    int items = 0;
    int consumed = 0;
    int woken = 0;
    bool go = false;
};

sim::Process
condTaker(Core &c, SyncApi &api, sync::CondVar cond, sync::Lock lock,
          int want, CondItems &shared)
{
    for (int got = 0; got < want; ++got) {
        co_await api.acquire(c, lock);
        while (shared.items == 0)
            co_await api.wait(c, cond, lock);
        --shared.items;
        ++shared.consumed;
        co_await api.release(c, lock);
    }
}

sim::Process
condGiver(Core &c, SyncApi &api, sync::CondVar cond, sync::Lock lock,
          int iters, CondItems &shared)
{
    for (int i = 0; i < iters; ++i) {
        co_await c.compute(40);
        co_await api.acquire(c, lock);
        ++shared.items;
        co_await api.signal(c, cond);
        co_await api.release(c, lock);
    }
}

TEST_P(OverflowSchemeTest, TinyStOverflowsCondVarSignals)
{
    // The cond var shares its master's single entry with the lock (both
    // homed in unit 0), or is homed in the other unit.
    for (UnitId condHome : {0u, 1u}) {
        SCOPED_TRACE("cond var homed in unit " + std::to_string(condHome));
        SystemConfig cfg = tinyStConfig(GetParam(), 2, 4);
        NdpSystem sys(cfg);
        sync::Lock lock = sys.api().createLock(0);
        sync::CondVar cond = sys.api().createCondVar(condHome);
        CondItems shared;

        const int iters = 5;
        const unsigned n = sys.numClientCores();
        for (unsigned i = 0; i < n; ++i) {
            if (i % 2 == 0) {
                sys.spawn(condTaker(sys.clientCore(i), sys.api(), cond,
                                    lock, iters, shared));
            } else {
                sys.spawn(condGiver(sys.clientCore(i), sys.api(), cond,
                                    lock, iters, shared));
            }
        }
        sys.run();

        EXPECT_EQ(shared.consumed, static_cast<int>(n / 2) * iters);
        EXPECT_EQ(shared.items, 0);
        engine::SynCronBackend *eng = sys.syncronBackend();
        ASSERT_NE(eng, nullptr);
        EXPECT_GT(eng->overflowedRequests(), 0u);
    }
}

sim::Process
broadcastWaiter(Core &c, SyncApi &api, sync::CondVar cond, sync::Lock lock,
                CondItems &shared)
{
    co_await api.acquire(c, lock);
    while (!shared.go)
        co_await api.wait(c, cond, lock);
    ++shared.woken;
    co_await api.release(c, lock);
}

sim::Process
broadcaster(Core &c, SyncApi &api, sync::CondVar cond, sync::Lock lock,
            CondItems &shared)
{
    co_await c.compute(5000); // let the waiters queue up
    co_await api.acquire(c, lock);
    shared.go = true;
    co_await api.broadcast(c, cond);
    co_await api.release(c, lock);
}

TEST_P(OverflowSchemeTest, TinyStOverflowsCondVarBroadcast)
{
    for (UnitId condHome : {0u, 1u}) {
        SCOPED_TRACE("cond var homed in unit " + std::to_string(condHome));
        SystemConfig cfg = tinyStConfig(GetParam(), 2, 4);
        NdpSystem sys(cfg);
        sync::Lock lock = sys.api().createLock(0);
        sync::CondVar cond = sys.api().createCondVar(condHome);
        CondItems shared;

        const unsigned n = sys.numClientCores();
        for (unsigned i = 0; i + 1 < n; ++i)
            sys.spawn(broadcastWaiter(sys.clientCore(i), sys.api(), cond,
                                      lock, shared));
        sys.spawn(broadcaster(sys.clientCore(n - 1), sys.api(), cond, lock,
                              shared));
        sys.run();

        EXPECT_EQ(shared.woken, static_cast<int>(n - 1));
        engine::SynCronBackend *eng = sys.syncronBackend();
        ASSERT_NE(eng, nullptr);
        EXPECT_GT(eng->overflowedRequests(), 0u);
    }
}

sim::Process
hogLock(Core &c, SyncApi &api, sync::Lock lock, std::uint64_t hold)
{
    co_await api.acquire(c, lock);
    co_await c.compute(hold);
    co_await api.release(c, lock);
}

TEST_P(OverflowSchemeTest, SmallStBroadcastWakesUnitLevelWaiters)
{
    // The master's two entries hold the lock and a hogged lock, so the
    // cond var lives in its syncronVar record; unit 1's SE still has an
    // entry for it and waits there as a whole unit. The broadcast must
    // reach that unit as a wake-all grant.
    SystemConfig cfg = tinyStConfig(GetParam(), 2, 4);
    cfg.stEntries = 2;
    NdpSystem sys(cfg);
    sync::Lock lock = sys.api().createLock(0);
    sync::Lock hog = sys.api().createLock(0);
    sync::CondVar cond = sys.api().createCondVar(0);
    CondItems shared;

    sys.spawn(hogLock(sys.clientCore(0), sys.api(), hog, 20000));
    for (unsigned i = 4; i < 8; ++i)
        sys.spawn(broadcastWaiter(sys.clientCore(i), sys.api(), cond, lock,
                                  shared));
    sys.spawn(broadcaster(sys.clientCore(3), sys.api(), cond, lock, shared));
    sys.run();

    EXPECT_EQ(shared.woken, 4);
    engine::SynCronBackend *eng = sys.syncronBackend();
    ASSERT_NE(eng, nullptr);
    EXPECT_GT(eng->overflowedRequests(), 0u);
}

sim::Process
phasedWaiter(Core &c, SyncApi &api, sync::Barrier bar, int phases,
             std::vector<int> &phase, unsigned idx, bool &violated)
{
    for (int p = 0; p < phases; ++p) {
        co_await c.compute(10 + c.rng().below(200));
        phase[idx] = p;
        co_await api.wait(c, bar);
        for (int other : phase) {
            if (other < p)
                violated = true;
        }
    }
}

TEST_P(OverflowSchemeTest, TinyStOverflowsBarriers)
{
    // Two barriers live at once, half the cores on each: barriers waited
    // back to back never hold two entries, so they never overflow.
    SystemConfig cfg = tinyStConfig(GetParam(), 4, 4);
    NdpSystem sys(cfg);
    const unsigned half = sys.numClientCores() / 2;
    const sync::Barrier bars[] = {sys.api().createBarrier(1, half),
                                  sys.api().createBarrier(1, half)};
    std::vector<int> phases[2] = {std::vector<int>(half, -1),
                                  std::vector<int>(half, -1)};
    bool violated = false;
    for (unsigned i = 0; i < sys.numClientCores(); ++i) {
        const unsigned which = i % 2;
        sys.spawn(phasedWaiter(sys.clientCore(i), sys.api(), bars[which],
                               5, phases[which], i / 2, violated));
    }
    sys.run();

    EXPECT_FALSE(violated) << "a core passed a barrier phase early";
    engine::SynCronBackend *eng = sys.syncronBackend();
    ASSERT_NE(eng, nullptr);
    EXPECT_GT(eng->overflowedRequests(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OverflowSchemeTest,
    ::testing::Values(Scheme::SynCron, Scheme::SynCronCentralOvrfl,
                      Scheme::SynCronDistribOvrfl),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string n = schemeName(info.param);
        for (char &ch : n) {
            if (ch == '-' || ch == '_')
                ch = 'x';
        }
        return n;
    });

TEST(Engine, IntegratedOverflowBeatsMisarStyle)
{
    // The Fig. 23 claim at test scale: under overflow, the integrated
    // scheme loses less performance than the MiSAR-style aborts.
    auto timeWith = [](Scheme scheme) {
        SystemConfig cfg = SystemConfig::make(scheme, 4, 8);
        cfg.stEntries = 4;
        NdpSystem sys(cfg);
        const sync::LockSet locks = sys.api().createLockSet(64);
        int progress = 0;
        for (unsigned i = 0; i < sys.numClientCores(); ++i)
            sys.spawn(twoLockWorker(sys.clientCore(i), sys.api(), locks,
                                    12, &progress));
        sys.run();
        return sys.elapsed();
    };
    const Tick integrated = timeWith(Scheme::SynCron);
    const Tick central = timeWith(Scheme::SynCronCentralOvrfl);
    EXPECT_LT(integrated, central);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto runOnce = [] {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 8);
        NdpSystem sys(cfg);
        sync::Lock lock = sys.api().createLock(1);
        int counter = 0;
        for (unsigned i = 0; i < sys.numClientCores(); ++i)
            sys.spawn(lockLoop(sys.clientCore(i), sys.api(), lock, 10,
                               &counter));
        sys.run();
        return std::pair<Tick, std::uint64_t>(
            sys.elapsed(), sys.stats().syncLocalMsgs);
    };
    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

sim::Process
measuredLockLoop(Core &c, SyncApi &api, const sync::LockSet &locks,
                 int warm, int rounds, std::uint64_t *allocs)
{
    // Each round takes every lock once: a mix of ST hits, fresh ST
    // entries, local grants and (for remotely-mastered locks) global
    // acquire/release traffic.
    std::uint64_t before = 0;
    for (int i = 0; i < warm + rounds; ++i) {
        if (i == warm)
            before = allocCount();
        for (std::size_t l = 0; l < locks.size(); ++l) {
            co_await api.acquire(c, locks[l]);
            co_await c.compute(20);
            co_await api.release(c, locks[l]);
            co_await c.compute(30);
        }
    }
    if (allocs != nullptr)
        *allocs = allocCount() - before;
}

TEST(EngineAlloc, StResidentLockRoundsAreAllocationFree)
{
    // Locks mastered in both units, few enough to stay ST-resident: once
    // the warm-up has sized the ST pool, its index, the in-flight
    // counters and the kernel's node pools, acquire/release allocates
    // nothing.
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
    NdpSystem sys(cfg);
    const sync::LockSet locks = sys.api().createLockSet(4);

    constexpr int kWarm = 20;
    constexpr int kRounds = 200;
    std::uint64_t allocs = ~std::uint64_t{0};
    // Core 0 measures while every other core is in steady state too:
    // they start together and keep going past core 0's window.
    sys.spawn(measuredLockLoop(sys.clientCore(0), sys.api(), locks, kWarm,
                               kRounds, &allocs));
    for (unsigned i = 1; i < sys.numClientCores(); ++i)
        sys.spawn(measuredLockLoop(sys.clientCore(i), sys.api(), locks,
                                   kWarm, 2 * kRounds, nullptr));
    sys.run();

    engine::SynCronBackend *eng = sys.syncronBackend();
    ASSERT_NE(eng, nullptr);
    EXPECT_EQ(eng->overflowedRequests(), 0u) << "locks must stay ST-resident";
    EXPECT_GT(sys.stats().stAllocs, static_cast<std::uint64_t>(kRounds))
        << "rounds must allocate and free ST entries";
    EXPECT_EQ(allocs, 0u) << "heap allocations across " << kRounds
                          << " steady-state lock rounds";
}

} // namespace
} // namespace syncron
