/**
 * @file
 * Tests for the MESI directory model used by the motivation
 * experiments: state transitions, invalidation, RMW atomicity, and the
 * two lock algorithms' correctness.
 */

#include <gtest/gtest.h>

#include "coherence/mesi.hh"
#include "mem/allocator.hh"

namespace syncron::coherence {
namespace {

TEST(Mesi, ReadsHitAfterFirstFill)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 14);
    cfg.coresPerUnit = 14;
    Machine machine(cfg);
    MesiSystem mesi(machine, 4);
    const Addr a = machine.addrSpace().allocIn(0, 64, 64);

    const Tick miss = mesi.read(0, a, 0);
    const Tick hit = mesi.read(0, a, miss) - miss;
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, mesi.hitLatency());
}

TEST(Mesi, WriteInvalidatesSharers)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 14);
    cfg.coresPerUnit = 14;
    Machine machine(cfg);
    MesiSystem mesi(machine, 4);
    const Addr a = machine.addrSpace().allocIn(0, 64, 64);

    Tick t = mesi.read(0, a, 0);
    t = mesi.read(1, a, t);
    t = mesi.write(2, a, t); // invalidates 0 and 1
    // Core 0 must now miss again.
    const Tick reread = mesi.read(0, a, t) - t;
    EXPECT_GT(reread, mesi.hitLatency());
}

TEST(Mesi, RemoteOwnerTransferCostsMoreThanLocal)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 14);
    cfg.coresPerUnit = 14;
    Machine machine(cfg);
    MesiSystem mesi(machine, 28); // 14 per socket
    const Addr a = machine.addrSpace().allocIn(0, 64, 64);

    // Core 1 (socket 0) owns the line Modified.
    Tick t = mesi.write(1, a, 0);
    // Same-socket transfer to core 2 vs cross-socket to core 20.
    const Tick same = mesi.read(2, a, t) - t;
    Tick t2 = mesi.write(1, a, same + t);
    const Tick cross = mesi.read(20, a, t2) - t2;
    EXPECT_GT(cross, same)
        << "cross-socket transfers must pay the links (Table 1 effect)";
}

TEST(Mesi, RmwAppliesInSerializationOrder)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 14);
    cfg.coresPerUnit = 14;
    Machine machine(cfg);
    MesiSystem mesi(machine, 4);
    const Addr a = machine.addrSpace().allocIn(0, 64, 64);

    auto r1 = mesi.rmwSwap(0, a, 1, 0);
    auto r2 = mesi.rmwSwap(1, a, 1, 0);
    // Exactly one swap observed 0 (won the lock).
    EXPECT_EQ(r1.second, 0u);
    EXPECT_EQ(r2.second, 1u);
    EXPECT_EQ(mesi.value(a), 1u);

    auto f1 = mesi.rmwFetchAdd(2, a, 5, std::max(r1.first, r2.first));
    EXPECT_EQ(f1.second, 1u);
    EXPECT_EQ(mesi.value(a), 6u);
}

TEST(Mesi, TtasLockEnforcesMutualProgress)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 14);
    cfg.coresPerUnit = 14;
    Machine machine(cfg);
    MesiSystem mesi(machine, 8);
    const Addr lock = machine.addrSpace().allocIn(0, 64, 64);

    std::uint64_t acquired = 0;
    std::vector<sim::Process> procs;
    for (unsigned c = 0; c < 8; ++c) {
        procs.push_back(
            ttasLockLoop(mesi, c, lock, 5, 25, &acquired));
        procs.back().start(machine.eq(0));
    }
    machine.eq(0).run();
    for (const auto &p : procs)
        EXPECT_TRUE(p.done());
    EXPECT_EQ(acquired, 40u);
    EXPECT_EQ(mesi.value(lock), 0u); // released at the end
}

TEST(Mesi, HierTicketLockCompletesAllAcquisitions)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 14);
    cfg.coresPerUnit = 14;
    Machine machine(cfg);
    MesiSystem mesi(machine, 28);
    HierTicketLock lock = HierTicketLock::make(machine);

    std::uint64_t acquired = 0;
    std::vector<sim::Process> procs;
    // Threads on both sockets.
    for (unsigned c : {0u, 1u, 14u, 15u}) {
        procs.push_back(
            hierTicketLockLoop(mesi, lock, c, 6, 25, &acquired));
        procs.back().start(machine.eq(0));
    }
    machine.eq(0).run();
    for (const auto &p : procs)
        EXPECT_TRUE(p.done());
    EXPECT_EQ(acquired, 24u);
}

} // namespace
} // namespace syncron::coherence
