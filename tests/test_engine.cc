/**
 * @file
 * SynCron-engine-specific tests: ST allocation/occupancy, hierarchical
 * aggregation, the overflow path (integrated and MiSAR-style), indexing
 * counters, determinism, and allocation-free steady-state lock rounds
 * (via a counting global operator new).
 */

#include <gtest/gtest.h>

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
