/**
 * @file
 * Tests for the typed synchronization API: typed primitive handles,
 * the ScopedLock guard, the asynchronous SyncFuture/SyncBatch surface
 * (pipelined submission, batch coalescing accounting, destroy() safety
 * under in-flight batches), per-op latency observability, the
 * generation-tagged destroy() safety net, lock-placement cursors, and
 * the string-keyed BackendRegistry.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "sync/registry.hh"
#include "syncron/engine.hh"
#include "system/system.hh"
#include "workloads/micro/primitives.hh"

namespace syncron {
namespace {

using core::Core;
using sync::BackendRegistry;
using sync::BarrierScope;
using sync::SyncApi;

// ----------------------------------------------------------------------
// Typed handles
// ----------------------------------------------------------------------

struct Counter
{
    int value = 0;
    bool inCritical = false;
    bool violated = false;
};

sim::Process
typedLockWorker(Core &c, SyncApi &api, sync::Lock lock, int iters,
                Counter &shared)
{
    for (int i = 0; i < iters; ++i) {
        co_await api.acquire(c, lock);
        if (shared.inCritical)
            shared.violated = true;
        shared.inCritical = true;
        co_await c.compute(10);
        ++shared.value;
        shared.inCritical = false;
        co_await api.release(c, lock);
    }
}

TEST(TypedApi, LockHandleEnforcesMutualExclusion)
{
    NdpSystem sys(SystemConfig::make(Scheme::SynCron, 2, 4));
    sync::Lock lock = sys.api().createLock(1);
    EXPECT_TRUE(lock.valid());
    EXPECT_EQ(lock.home(), 1u);

    Counter shared;
    for (unsigned i = 0; i < sys.numClientCores(); ++i) {
        sys.spawn(typedLockWorker(sys.clientCore(i), sys.api(), lock, 5,
                                  shared));
    }
    sys.run();
    EXPECT_FALSE(shared.violated);
    EXPECT_EQ(shared.value,
              static_cast<int>(sys.numClientCores()) * 5);
}

sim::Process
typedBarrierWorker(Core &c, SyncApi &api, sync::Barrier bar, int phases,
                   std::vector<int> &phase, unsigned idx, bool &violated)
{
    for (int p = 0; p < phases; ++p) {
        co_await c.compute(10 + c.rng().below(100));
        phase[idx] = p;
        co_await api.wait(c, bar);
        for (int other : phase) {
            if (other < p)
                violated = true;
        }
    }
}

TEST(TypedApi, BarrierHandleCarriesParticipantCount)
{
    NdpSystem sys(SystemConfig::make(Scheme::SynCron, 2, 4));
    const unsigned n = sys.numClientCores();
    sync::Barrier bar = sys.api().createBarrier(0, n);
    EXPECT_EQ(bar.participants, n);

    std::vector<int> phase(n, -1);
    bool violated = false;
    for (unsigned i = 0; i < n; ++i) {
        sys.spawn(typedBarrierWorker(sys.clientCore(i), sys.api(), bar, 4,
                                     phase, i, violated));
    }
    sys.run();
    EXPECT_FALSE(violated);
}

sim::Process
typedSemProducer(Core &c, SyncApi &api, sync::Semaphore items, int iters)
{
    for (int i = 0; i < iters; ++i) {
        co_await c.compute(30);
        co_await api.post(c, items);
    }
}

sim::Process
typedSemConsumer(Core &c, SyncApi &api, sync::Semaphore items, int iters,
                 int &consumed)
{
    for (int i = 0; i < iters; ++i) {
        co_await api.wait(c, items);
        ++consumed;
    }
}

TEST(TypedApi, SemaphoreHandleFixesInitialResources)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 2, 4));
    sync::Semaphore items = sys.api().createSemaphore(0, 0);
    int consumed = 0;
    const int iters = 6;
    const unsigned n = sys.numClientCores();
    for (unsigned i = 0; i < n / 2; ++i)
        sys.spawn(typedSemConsumer(sys.clientCore(i), sys.api(), items,
                                   iters, consumed));
    for (unsigned i = n / 2; i < n; ++i)
        sys.spawn(typedSemProducer(sys.clientCore(i), sys.api(), items,
                                   iters));
    sys.run();
    EXPECT_EQ(consumed, static_cast<int>(n / 2) * iters);
}

sim::Process
typedCondConsumer(Core &c, SyncApi &api, sync::CondVar cond,
                  sync::Lock lock, int want, int &items, int &consumed)
{
    int got = 0;
    while (got < want) {
        co_await api.acquire(c, lock);
        while (items == 0)
            co_await api.wait(c, cond, lock);
        --items;
        ++consumed;
        ++got;
        co_await api.release(c, lock);
    }
}

sim::Process
typedCondProducer(Core &c, SyncApi &api, sync::CondVar cond,
                  sync::Lock lock, int iters, int &items)
{
    for (int i = 0; i < iters; ++i) {
        co_await c.compute(40);
        co_await api.acquire(c, lock);
        ++items;
        co_await api.signal(c, cond);
        co_await api.release(c, lock);
    }
}

TEST(TypedApi, CondVarHandleNamesItsLock)
{
    NdpSystem sys(SystemConfig::make(Scheme::SynCron, 2, 4));
    sync::Lock lock = sys.api().createLock(0);
    sync::CondVar cond = sys.api().createCondVar(1);
    int items = 0, consumed = 0;
    const int iters = 4;
    const unsigned n = sys.numClientCores();
    for (unsigned i = 0; i < n / 2; ++i)
        sys.spawn(typedCondConsumer(sys.clientCore(i), sys.api(), cond,
                                    lock, iters, items, consumed));
    for (unsigned i = n / 2; i < n; ++i)
        sys.spawn(typedCondProducer(sys.clientCore(i), sys.api(), cond,
                                    lock, iters, items));
    sys.run();
    EXPECT_EQ(consumed, static_cast<int>(n / 2) * iters);
    EXPECT_EQ(items, 0);
}

// ----------------------------------------------------------------------
// ScopedLock
// ----------------------------------------------------------------------

sim::Process
scopedWorker(Core &c, SyncApi &api, sync::Lock lock, int iters,
             Counter &shared, bool explicitUnlock)
{
    for (int i = 0; i < iters; ++i) {
        sync::ScopedLock guard = co_await api.scoped(c, lock);
        EXPECT_TRUE(guard.owns());
        if (shared.inCritical)
            shared.violated = true;
        shared.inCritical = true;
        co_await c.compute(10);
        ++shared.value;
        shared.inCritical = false;
        if (explicitUnlock) {
            co_await guard.unlock();
            EXPECT_FALSE(guard.owns());
        }
        // Otherwise: scope exit releases.
    }
}

TEST(ScopedLockTest, ReleasesOnScopeExit)
{
    NdpSystem sys(SystemConfig::make(Scheme::SynCron, 2, 4));
    sync::Lock lock = sys.api().createLock(0);
    Counter shared;
    for (unsigned i = 0; i < sys.numClientCores(); ++i) {
        sys.spawn(scopedWorker(sys.clientCore(i), sys.api(), lock, 5,
                               shared, /*explicitUnlock=*/i % 2 == 0));
    }
    sys.run(); // would deadlock if a scope exit ever leaked the lock
    EXPECT_FALSE(shared.violated);
    EXPECT_EQ(shared.value,
              static_cast<int>(sys.numClientCores()) * 5);
    // Every critical section entered and left => lock is free again.
    EXPECT_TRUE(sys.backend().idleVar(lock.addr));
}

// ----------------------------------------------------------------------
// SyncFuture / SyncBatch (asynchronous submission)
// ----------------------------------------------------------------------

sim::Process
pipelinedWorker(Core &c, SyncApi &api, const sync::LockSet &locks,
                int &done)
{
    // Two acquires to different locks in flight at once from one core —
    // the pipelining the blocking SyncOp form cannot express.
    sync::SyncFuture a = api.submitAcquire(c, locks[0]);
    sync::SyncFuture b = api.submitAcquire(c, locks[1]);
    EXPECT_TRUE(a.valid());
    const sync::SyncResponse ra = co_await a;
    const sync::SyncResponse rb = co_await b;
    EXPECT_EQ(ra.kind, sync::OpKind::LockAcquire);
    EXPECT_EQ(rb.kind, sync::OpKind::LockAcquire);
    EXPECT_LE(ra.issuedAt, ra.completedAt);
    EXPECT_LE(rb.issuedAt, rb.completedAt);
    // Fire-and-forget releases: a resolved future may be dropped
    // without being awaited and must still be recorded.
    api.submitRelease(c, locks[0]);
    api.submitRelease(c, locks[1]);
    ++done;
}

TEST(SyncFutureTest, PipelinesAcquiresAndRecordsDroppedFutures)
{
    for (Scheme s : {Scheme::Ideal, Scheme::Central, Scheme::SynCron}) {
        NdpSystem sys(SystemConfig::make(s, 2, 4));
        SyncApi &api = sys.api();
        const sync::LockSet locks = api.createLockSet(2, {0u, 1u});
        int done = 0;
        sys.spawn(pipelinedWorker(sys.clientCore(0), api, locks, done));
        sys.run();
        EXPECT_EQ(done, 1) << schemeName(s);

        const unsigned acq =
            static_cast<unsigned>(sync::OpKind::LockAcquire);
        const unsigned rel =
            static_cast<unsigned>(sync::OpKind::LockRelease);
        // Every op recorded exactly once — including the two release
        // futures that were dropped instead of awaited.
        EXPECT_EQ(sys.stats().syncLatency[acq].count, 2u)
            << schemeName(s);
        EXPECT_EQ(sys.stats().syncLatency[rel].count, 2u)
            << schemeName(s);
        EXPECT_TRUE(sys.backend().idleVar(locks[0].addr))
            << schemeName(s);
        EXPECT_TRUE(sys.backend().idleVar(locks[1].addr))
            << schemeName(s);
    }
}

TEST(SyncBatchTest, CoalescingEngagesOnOptedInBackends)
{
    for (Scheme s : {Scheme::SynCron, Scheme::Central}) {
        NdpSystem sys(SystemConfig::make(s, 2, 4));
        workloads::SemFanoutWorkload w(sys, /*width=*/4, /*rounds=*/2,
                                       /*contended=*/false);
        sys.run();
        // Per core: 2 rounds x (one 4-post batch + one 4-wait batch).
        const std::uint64_t ops =
            static_cast<std::uint64_t>(sys.numClientCores()) * 2 * 8;
        EXPECT_EQ(sys.stats().syncOps, ops) << schemeName(s);
        EXPECT_EQ(sys.stats().batchedOps, ops) << schemeName(s);
        // Each 4-op batch travels as one message instead of four.
        EXPECT_EQ(sys.stats().messagesSaved, ops / 4 * 3)
            << schemeName(s);
        const unsigned wait = static_cast<unsigned>(sync::OpKind::SemWait);
        const unsigned post = static_cast<unsigned>(sync::OpKind::SemPost);
        EXPECT_EQ(sys.stats().syncLatency[wait].count, ops / 2)
            << schemeName(s);
        EXPECT_EQ(sys.stats().syncLatency[post].count, ops / 2)
            << schemeName(s);
    }
}

TEST(SyncBatchTest, DefaultFallbackLeavesBackendsUnmodified)
{
    // Backends that never overrode requestBatch() must behave exactly
    // as if every member had been issued through request().
    for (Scheme s : {Scheme::Ideal, Scheme::SynCronFlat}) {
        NdpSystem sys(SystemConfig::make(s, 2, 4));
        workloads::SemFanoutWorkload w(sys, 4, 2, false);
        sys.run();
        const std::uint64_t ops =
            static_cast<std::uint64_t>(sys.numClientCores()) * 2 * 8;
        EXPECT_EQ(sys.stats().syncOps, ops) << schemeName(s);
        EXPECT_EQ(sys.stats().batchedOps, 0u) << schemeName(s);
        EXPECT_EQ(sys.stats().messagesSaved, 0u) << schemeName(s);
        const unsigned wait = static_cast<unsigned>(sync::OpKind::SemWait);
        EXPECT_EQ(sys.stats().syncLatency[wait].count, ops / 2)
            << schemeName(s);
    }
}

sim::Process
holdAwhile(Core &c, SyncApi &api, sync::Lock lock)
{
    co_await api.acquire(c, lock);
    co_await c.compute(5000);
    co_await api.release(c, lock);
}

sim::Process
batchWhileHeld(NdpSystem &sys, Core &c, SyncApi &api, sync::Lock lock,
               sync::Semaphore sem, bool &checked)
{
    co_await c.compute(100);
    sync::SyncBatch batch(api, c);
    batch.acquire(lock).post(sem);
    std::vector<sync::SyncFuture> futures = batch.submit();
    // The acquire is outstanding (the other core holds the lock, or at
    // minimum our own message is in flight): the backend tracks live
    // state for the variable, so destroy() must panic — and must leave
    // the handle usable (the generation is only bumped on success).
    EXPECT_FALSE(sys.backend().idleVar(lock.addr));
    EXPECT_THROW(api.destroy(lock), std::logic_error);
    checked = true;
    for (sync::SyncFuture &f : futures)
        co_await f;
    co_await api.wait(c, sem); // drain our own post
    co_await api.release(c, lock);
}

TEST(IdleVarTest, OutstandingBatchBlocksDestroyOnEveryBackend)
{
    for (const std::string &name :
         BackendRegistry::instance().names()) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
        cfg.backendName = name;
        NdpSystem sys(cfg);
        SyncApi &api = sys.api();
        sync::Lock lock = api.createLock(0);
        sync::Semaphore sem = api.createSemaphore(1, 0);
        bool checked = false;
        sys.spawn(holdAwhile(sys.clientCore(0), api, lock));
        sys.spawn(batchWhileHeld(sys, sys.clientCore(4), api, lock, sem,
                                 checked));
        sys.run();
        EXPECT_TRUE(checked) << name;
        // Once every future resolved (and the lock was released),
        // destroy() must succeed on the very same handle. The semaphore
        // is back at its initial count, so it holds no state either.
        EXPECT_TRUE(sys.backend().idleVar(lock.addr)) << name;
        api.destroy(lock);
        EXPECT_TRUE(sys.backend().idleVar(sem.addr)) << name;
        EXPECT_NO_THROW(api.destroy(sem)) << name;
    }
}

// ----------------------------------------------------------------------
// Semaphore counts
// ----------------------------------------------------------------------

sim::Process
postNow(Core &c, SyncApi &api, sync::Semaphore sem)
{
    co_await api.post(c, sem);
}

sim::Process
waitLater(Core &c, SyncApi &api, sync::Semaphore sem, int &granted)
{
    co_await c.compute(2000);
    co_await api.wait(c, sem);
    ++granted;
}

TEST(SemaphoreCount, PostBeforeAnyWaitKeepsInitialResourcesOnEveryBackend)
{
    // Only a sem_wait carries the initial resources. A post that reaches
    // the semaphore's state first must add to them, not replace them:
    // 2 resources + 1 post fund all three later waits.
    for (const std::string &name :
         BackendRegistry::instance().names()) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
        cfg.backendName = name;
        NdpSystem sys(cfg);
        SyncApi &api = sys.api();
        sync::Semaphore sem = api.createSemaphore(0, 2);
        int granted = 0;
        // The post comes from the non-home unit; the waits from both.
        sys.spawn(postNow(sys.clientCore(4), api, sem), sys.clientCore(4));
        for (unsigned core : {0u, 1u, 5u}) {
            sys.spawn(waitLater(sys.clientCore(core), api, sem, granted),
                      sys.clientCore(core));
        }
        EXPECT_NO_THROW(sys.run()) << name;
        EXPECT_EQ(granted, 3) << name;
        // 2 + 1 - 3: the count is back at zero, one below its initial
        // resources, so the semaphore still holds state.
        EXPECT_FALSE(sys.backend().idleVar(sem.addr)) << name;
    }
}

sim::Process
waitThenPost(Core &c, SyncApi &api, sync::Semaphore sem, unsigned rounds)
{
    for (unsigned i = 0; i < rounds; ++i) {
        co_await api.wait(c, sem);
        co_await c.compute(50);
        co_await api.post(c, sem);
    }
}

TEST(SemaphoreCount, UsedSemaphoreBackAtInitialCountFreesItsState)
{
    // A semaphore whose count equals its initial resources and that has
    // no waiter holds no state: SynCron frees its master ST entry (and
    // any in-memory record), and destroy() succeeds on every backend.
    for (const std::string &name :
         BackendRegistry::instance().names()) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
        cfg.backendName = name;
        NdpSystem sys(cfg);
        SyncApi &api = sys.api();
        sync::Semaphore sem = api.createSemaphore(1, 1);
        for (unsigned core = 0; core < sys.numClientCores(); ++core) {
            sys.spawn(waitThenPost(sys.clientCore(core), api, sem, 3),
                      sys.clientCore(core));
        }
        sys.run();
        if (const engine::SynCronBackend *eng = sys.syncronBackend()) {
            for (UnitId u = 0; u < cfg.numUnits; ++u)
                EXPECT_EQ(eng->stOccupied(u), 0u) << name << " unit " << u;
        }
        EXPECT_TRUE(sys.backend().idleVar(sem.addr)) << name;
        EXPECT_NO_THROW(api.destroy(sem)) << name;
    }
}

// ----------------------------------------------------------------------
// Lock-placement cursors
// ----------------------------------------------------------------------

TEST(LockPlacement, SetCursorIsIndependentOfInterleavedSingles)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 4, 2));
    SyncApi &api = sys.api();

    // A single interleaved lock advances rr_ to unit 1...
    sync::Lock s0 = api.createLockInterleaved();
    EXPECT_EQ(s0.home(), 0u);

    // ...but the first set still starts the set cursor at unit 0 and
    // stays perfectly balanced.
    const sync::LockSet a = api.createLockSet(6);
    std::array<unsigned, 4> homesA{};
    for (const sync::Lock &l : a)
        ++homesA[l.home()];
    EXPECT_EQ(a[0].home(), 0u);
    EXPECT_EQ(a[5].home(), 1u);
    EXPECT_EQ(homesA, (std::array<unsigned, 4>{2, 2, 1, 1}));

    // The set did not disturb the singles cursor: the next interleaved
    // single lands exactly where it would have without the set.
    sync::Lock s1 = api.createLockInterleaved();
    EXPECT_EQ(s1.home(), 1u);

    // And the second set continues the set cursor where the first set
    // stopped (unit 2), unaffected by the singles in between.
    const sync::LockSet b = api.createLockSet(4);
    EXPECT_EQ(b[0].home(), 2u);
    EXPECT_EQ(b[1].home(), 3u);
    EXPECT_EQ(b[2].home(), 0u);
    EXPECT_EQ(b[3].home(), 1u);
}

// ----------------------------------------------------------------------
// Per-op latency observability
// ----------------------------------------------------------------------

TEST(SyncLatency, EverySchemeRecordsPerOpLatencies)
{
    for (Scheme s : {Scheme::Ideal, Scheme::Central, Scheme::Hier,
                     Scheme::SynCron, Scheme::SynCronFlat}) {
        NdpSystem sys(SystemConfig::make(s, 2, 4));
        sync::Lock lock = sys.api().createLock(0);
        Counter shared;
        const int iters = 5;
        for (unsigned i = 0; i < sys.numClientCores(); ++i) {
            sys.spawn(typedLockWorker(sys.clientCore(i), sys.api(), lock,
                                      iters, shared));
        }
        sys.run();

        const unsigned acq =
            static_cast<unsigned>(sync::OpKind::LockAcquire);
        const unsigned rel =
            static_cast<unsigned>(sync::OpKind::LockRelease);
        const SyncOpLatency &acqLat = sys.stats().syncLatency[acq];
        const SyncOpLatency &relLat = sys.stats().syncLatency[rel];
        const std::uint64_t ops =
            static_cast<std::uint64_t>(sys.numClientCores()) * iters;
        EXPECT_EQ(acqLat.count, ops) << schemeName(s);
        EXPECT_EQ(relLat.count, ops) << schemeName(s);
        if (s != Scheme::Ideal) {
            EXPECT_GT(acqLat.totalTicks, 0u) << schemeName(s);
            // Acquires block until granted; releases commit at issue.
            EXPECT_GT(acqLat.avgTicks(), relLat.avgTicks())
                << schemeName(s);
        }
    }
}

TEST(SyncLatency, HistogramBucketsAndMergeAreConsistent)
{
    SyncOpLatency a;
    a.record(0);
    a.record(1);
    a.record(1000);
    EXPECT_EQ(a.count, 3u);
    EXPECT_EQ(a.minTicks, 0);
    EXPECT_EQ(a.maxTicks, 1000);
    EXPECT_EQ(a.hist[0], 1u);  // 0 ticks
    EXPECT_EQ(a.hist[1], 1u);  // 1 tick
    EXPECT_EQ(a.hist[10], 1u); // 512 <= 1000 < 1024

    SyncOpLatency b;
    b.record(4);
    b += a;
    EXPECT_EQ(b.count, 4u);
    EXPECT_EQ(b.minTicks, 0);
    EXPECT_EQ(b.maxTicks, 1000);
    EXPECT_DOUBLE_EQ(b.avgTicks(), (0.0 + 1 + 1000 + 4) / 4);
}

// ----------------------------------------------------------------------
// destroy() safety
// ----------------------------------------------------------------------

TEST(DestroyPrimitive, RecycledLineGetsNewGeneration)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 2, 4));
    sync::Lock a = sys.api().createLock(1);
    sys.api().destroy(a);
    sync::Lock b = sys.api().createLock(1);
    EXPECT_EQ(b.addr, a.addr); // line recycled...
    EXPECT_NE(b.gen, a.gen);   // ...under a fresh generation
}

TEST(DestroyPrimitive, StaleHandleUseIsCaught)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 2, 4));
    sync::Lock a = sys.api().createLock(0);
    sys.api().destroy(a);
    // The stale handle must not alias the recycled line's new user.
    EXPECT_THROW(sys.api().acquire(sys.clientCore(0), a),
                 std::logic_error);
    EXPECT_THROW(sys.api().destroy(a), std::logic_error);
}

sim::Process
holdLock(Core &c, SyncApi &api, sync::Lock lock)
{
    co_await api.acquire(c, lock);
    // Never released: the variable stays live in the backend.
}

TEST(DestroyPrimitive, RefusedWhileBackendTracksState)
{
    for (Scheme s : {Scheme::Ideal, Scheme::SynCron}) {
        NdpSystem sys(SystemConfig::make(s, 2, 4));
        sync::Lock lock = sys.api().createLock(0);
        sys.spawn(holdLock(sys.clientCore(0), sys.api(), lock));
        sys.run();
        EXPECT_FALSE(sys.backend().idleVar(lock.addr))
            << schemeName(s);
        EXPECT_THROW(sys.api().destroy(lock), std::logic_error)
            << schemeName(s);
    }
}

// ----------------------------------------------------------------------
// BackendRegistry
// ----------------------------------------------------------------------

TEST(Registry, AllSevenSchemesConstructibleByName)
{
    struct Expect
    {
        Scheme scheme;
        bool shardable;
        bool engine; ///< built by engine::SynCronBackend
    };
    for (const Expect x : {Expect{Scheme::Ideal, false, false},
                           Expect{Scheme::Central, true, false},
                           Expect{Scheme::Hier, true, true},
                           Expect{Scheme::SynCron, true, true},
                           Expect{Scheme::SynCronFlat, true, false},
                           Expect{Scheme::SynCronCentralOvrfl, false, true},
                           Expect{Scheme::SynCronDistribOvrfl, false,
                                  true}}) {
        const std::string name = schemeName(x.scheme);
        EXPECT_TRUE(BackendRegistry::instance().contains(name)) << name;
        EXPECT_EQ(BackendRegistry::instance().shardable(name), x.shardable)
            << name;

        // Round trip: name -> create -> name().
        SystemConfig cfg = SystemConfig::make(x.scheme, 2, 4);
        Machine machine(cfg);
        auto backend =
            BackendRegistry::instance().tryCreate(name, machine);
        ASSERT_NE(backend, nullptr) << name;
        EXPECT_EQ(backend->name(), name);
        EXPECT_EQ(dynamic_cast<engine::SynCronBackend *>(backend.get())
                      != nullptr,
                  x.engine)
            << name;
    }
}

TEST(Registry, UnknownNamesAreRejected)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 4);
    Machine machine(cfg);
    EXPECT_EQ(BackendRegistry::instance().tryCreate("NoSuchScheme",
                                                    machine),
              nullptr);
    EXPECT_THROW(BackendRegistry::instance().create("NoSuchScheme",
                                                    machine),
                 std::runtime_error);

    cfg.backendName = "NoSuchScheme";
    EXPECT_THROW(NdpSystem sys(cfg), std::runtime_error);
}

TEST(Registry, ConfigBackendNameOverridesScheme)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 4);
    cfg.backendName = "SynCron";
    NdpSystem sys(cfg);
    EXPECT_STREQ(sys.backend().name(), "SynCron");
    EXPECT_NE(sys.syncronBackend(), nullptr);
}

TEST(Registry, SchemeFromNameIsInverseOfSchemeName)
{
    for (Scheme s : {Scheme::Ideal, Scheme::Central, Scheme::Hier,
                     Scheme::SynCron, Scheme::SynCronFlat,
                     Scheme::SynCronCentralOvrfl,
                     Scheme::SynCronDistribOvrfl}) {
        Scheme parsed{};
        EXPECT_TRUE(schemeFromName(schemeName(s), parsed));
        EXPECT_EQ(parsed, s);
    }
    Scheme parsed{};
    EXPECT_FALSE(schemeFromName("NoSuchScheme", parsed));
}

} // namespace
} // namespace syncron
