/**
 * @file
 * System-level tests: configuration validation, NdpSystem assembly,
 * SyncApi variable management, deadlock detection, energy model, and
 * core memory-kind policies.
 */

#include <gtest/gtest.h>

#include "system/energy.hh"
#include "system/system.hh"

namespace syncron {
namespace {

TEST(SystemConfig, ValidationRejectsBadTopologies)
{
    SystemConfig cfg;
    cfg.numUnits = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = SystemConfig{};
    cfg.clientCoresPerUnit = cfg.coresPerUnit + 1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = SystemConfig{};
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.totalClientCores(), 60u);
    EXPECT_EQ(cfg.totalCores(), 64u);
}

TEST(SystemConfig, SchemeNamesAreDistinct)
{
    EXPECT_STREQ(schemeName(Scheme::SynCron), "SynCron");
    EXPECT_STRNE(schemeName(Scheme::Hier), schemeName(Scheme::Central));
}

TEST(NdpSystem, CoresAreDistributedRoundRobinByUnit)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 4, 15));
    EXPECT_EQ(sys.numClientCores(), 60u);
    for (unsigned i = 0; i < 60; ++i) {
        EXPECT_EQ(sys.clientCore(i).unit(), i / 15);
        EXPECT_EQ(sys.clientCore(i).localId(), i % 15);
        EXPECT_EQ(sys.clientCore(i).id(),
                  (i / 15) * 16 + (i % 15)); // 16 cores per unit
    }
}

TEST(NdpSystem, BackendMatchesScheme)
{
    for (Scheme s : {Scheme::Ideal, Scheme::Central, Scheme::Hier,
                     Scheme::SynCron, Scheme::SynCronFlat}) {
        NdpSystem sys(SystemConfig::make(s, 2, 4));
        EXPECT_STREQ(sys.backend().name(), schemeName(s));
        const bool engineBased =
            s == Scheme::SynCron || s == Scheme::Hier;
        EXPECT_EQ(sys.syncronBackend() != nullptr, engineBased);
    }
}

TEST(SyncApi, PrimitivesAreLineAlignedAndHomed)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 4, 4));
    sync::Lock a = sys.api().createLock(2);
    EXPECT_EQ(a.home(), 2u);
    EXPECT_EQ(a.addr % kCacheLineBytes, 0u);

    // destroy + create recycles the line.
    sys.api().destroy(a);
    sync::Lock b = sys.api().createLock(2);
    EXPECT_EQ(b.addr, a.addr);

    // interleaved creation round-robins homes.
    UnitId expect = 0;
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(sys.api().createLockInterleaved().home(), expect);
        expect = (expect + 1) % 4;
    }
}

TEST(SyncApi, LockSetPlacementPolicies)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 4, 4));

    // Empty homes: round-robin across all units.
    sync::LockSet rr = sys.api().createLockSet(8);
    ASSERT_EQ(rr.size(), 8u);
    for (std::size_t i = 0; i < rr.size(); ++i)
        EXPECT_EQ(rr[i].home(), i % 4);

    // Explicit homes are cycled.
    sync::LockSet homed = sys.api().createLockSet(4, {3, 1});
    EXPECT_EQ(homed[0].home(), 3u);
    EXPECT_EQ(homed[1].home(), 1u);
    EXPECT_EQ(homed[2].home(), 3u);
    EXPECT_EQ(homed[3].home(), 1u);

    // By-address: each lock homed with the datum it protects.
    std::vector<Addr> data;
    for (UnitId u : {2u, 0u, 3u})
        data.push_back(sys.machine().addrSpace().allocIn(u, 8, 8));
    sync::LockSet byAddr = sys.api().createLockSetByAddr(data);
    ASSERT_EQ(byAddr.size(), 3u);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(byAddr[i].home(), mem::unitOfAddr(data[i]));

    // destroy(LockSet&) releases every line and empties the set.
    sys.api().destroy(byAddr);
    EXPECT_TRUE(byAddr.empty());
}

sim::Process
neverGranted(core::Core &c, sync::SyncApi &api, sync::Lock lock)
{
    co_await api.acquire(c, lock);
    co_await api.acquire(c, lock); // self-deadlock: never granted
}

TEST(NdpSystem, DeadlockIsDetectedNotHung)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 1, 2));
    sync::Lock lock = sys.api().createLock(0);
    sys.spawn(neverGranted(sys.clientCore(0), sys.api(), lock));
    EXPECT_THROW(sys.run(), std::runtime_error);
}

sim::Process
memKinds(core::Core &c, Addr privAddr, Addr rwAddr, Tick *privT,
         Tick *rwT)
{
    // Warm the cacheable private line, then time a hit vs an uncached
    // shared-RW access.
    co_await c.load(privAddr, 8, core::MemKind::Private);
    const Tick t0 = c.machine().eq(c.unit()).now();
    co_await c.load(privAddr, 8, core::MemKind::Private);
    *privT = c.machine().eq(c.unit()).now() - t0;
    const Tick t1 = c.machine().eq(c.unit()).now();
    co_await c.load(rwAddr, 8, core::MemKind::SharedRW);
    *rwT = c.machine().eq(c.unit()).now() - t1;
}

TEST(Core, SharedRwBypassesTheL1)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 1, 2));
    Addr privAddr = sys.machine().addrSpace().allocIn(0, 64);
    Addr rwAddr = sys.machine().addrSpace().allocIn(0, 64);
    Tick privT = 0, rwT = 0;
    sys.spawn(memKinds(sys.clientCore(0), privAddr, rwAddr, &privT,
                       &rwT));
    sys.run();
    // Cached hit: 4 core cycles = 1.6 ns. Uncached: full DRAM round
    // trip, at least several ns.
    EXPECT_EQ(privT, 4 * 400u);
    EXPECT_GT(rwT, privT * 3);
    EXPECT_GT(sys.stats().l1Hits, 0u);
}

TEST(Energy, BreakdownTracksConfigCoefficients)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 2);
    SystemStats stats;
    stats.l1Hits = 1000;
    stats.l1Misses = 100;
    stats.xbarBitHops = 1'000'000;
    stats.linkBits = 10'000;
    stats.dramReads = 50;
    stats.dramWrites = 50;

    EnergyBreakdown e = computeEnergy(stats, cfg);
    EXPECT_DOUBLE_EQ(e.cacheJ, (1000 * 23.0 + 100 * 47.0) * 1e-12);
    EXPECT_DOUBLE_EQ(e.networkJ,
                     (1'000'000 * 0.4 + 10'000 * 4.0) * 1e-12);
    EXPECT_DOUBLE_EQ(e.memoryJ, 100 * 64 * 8 * 7.0 * 1e-12);
    EXPECT_DOUBLE_EQ(e.total(), e.cacheJ + e.networkJ + e.memoryJ);

    // DDR4 memory energy per access is higher.
    cfg.dramTech = mem::DramTech::Ddr4;
    EXPECT_GT(computeEnergy(stats, cfg).memoryJ, e.memoryJ);
}

TEST(Opcodes, ClassificationIsConsistent)
{
    using namespace sync;
    EXPECT_TRUE(isAcquireType(OpKind::LockAcquire));
    EXPECT_TRUE(isReleaseType(OpKind::LockRelease));
    EXPECT_TRUE(isAcquireType(OpKind::CondWait));
    EXPECT_TRUE(isReleaseType(OpKind::CondBroadcast));
    EXPECT_TRUE(isGlobalOp(Op::LockAcquireGlobal));
    EXPECT_TRUE(isOverflowOp(Op::SemGrantOverflow));
    EXPECT_FALSE(isOverflowOp(Op::SemGrantGlobal));
    EXPECT_TRUE(isAcquireOp(Op::BarrierWaitOverflow));
    EXPECT_TRUE(isReleaseOp(Op::CondBroadOverflow));
    // Every opcode has a printable, non-"?" name.
    for (int op = 0;
         op <= static_cast<int>(Op::DecreaseIndexingCounter); ++op)
        EXPECT_STRNE(opName(static_cast<Op>(op)), "?");
}

} // namespace
} // namespace syncron
