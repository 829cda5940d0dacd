/**
 * @file
 * Unit + property tests for the flat semantic state machine — the
 * reference semantics all backends must agree with — driven through the
 * typed SyncRequest descriptors.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"
#include "sync/flat_state.hh"

namespace syncron::sync {
namespace {

constexpr Addr kVarA = 0x100;
constexpr Addr kVarB = 0x200;
constexpr Addr kVarC = 0x300;
constexpr Addr kLockVar = 0x400;
constexpr Addr kCondVar = 0x500;

class FlatStateTest : public ::testing::Test
{
  protected:
    sim::EventQueue eq;
    FlatSyncState st;
    std::vector<std::unique_ptr<sim::Gate>> gates;

    sim::Gate *
    gate()
    {
        gates.push_back(std::make_unique<sim::Gate>(eq));
        return gates.back().get();
    }
};

TEST_F(FlatStateTest, LockGrantsInFifoOrder)
{
    auto g1 = st.apply(SyncRequest::lockAcquire(kVarA), 1, gate());
    ASSERT_EQ(g1.size(), 1u);
    EXPECT_EQ(g1[0].core, 1u);

    EXPECT_TRUE(
        st.apply(SyncRequest::lockAcquire(kVarA), 2, gate()).empty());
    EXPECT_TRUE(
        st.apply(SyncRequest::lockAcquire(kVarA), 3, gate()).empty());

    auto g2 = st.apply(SyncRequest::lockRelease(kVarA), 1, nullptr);
    ASSERT_EQ(g2.size(), 1u);
    EXPECT_EQ(g2[0].core, 2u);
    auto g3 = st.apply(SyncRequest::lockRelease(kVarA), 2, nullptr);
    ASSERT_EQ(g3.size(), 1u);
    EXPECT_EQ(g3[0].core, 3u);
    st.apply(SyncRequest::lockRelease(kVarA), 3, nullptr);
    EXPECT_TRUE(st.idle(kVarA));
}

TEST_F(FlatStateTest, ReleaseByNonOwnerPanics)
{
    st.apply(SyncRequest::lockAcquire(kVarA), 1, gate());
    EXPECT_THROW(st.apply(SyncRequest::lockRelease(kVarA), 2, nullptr),
                 std::logic_error);
}

TEST_F(FlatStateTest, BarrierReleasesExactlyAtCount)
{
    const SyncRequest wait =
        SyncRequest::barrierWait(kVarB, BarrierScope::AcrossUnits, 5);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_TRUE(st.apply(wait, c, gate()).empty());
    auto g = st.apply(wait, 4, gate());
    EXPECT_EQ(g.size(), 5u);
    EXPECT_TRUE(st.idle(kVarB)); // reusable afterwards
}

TEST_F(FlatStateTest, SemaphoreCountsResources)
{
    // Initial value 2: first two waits pass, third blocks.
    const SyncRequest wait = SyncRequest::semWait(kVarC, 2);
    const SyncRequest post = SyncRequest::semPost(kVarC);
    EXPECT_EQ(st.apply(wait, 0, gate()).size(), 1u);
    EXPECT_EQ(st.apply(wait, 1, gate()).size(), 1u);
    EXPECT_TRUE(st.apply(wait, 2, gate()).empty());
    auto g = st.apply(post, 0, nullptr);
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0].core, 2u);
    // Post with no waiters accumulates.
    EXPECT_TRUE(st.apply(post, 0, nullptr).empty());
    EXPECT_EQ(st.apply(wait, 3, gate()).size(), 1u);
}

TEST_F(FlatStateTest, CondWaitReleasesLockAndSignalReacquires)
{
    // Core 1 takes the lock, then waits on the cond (releasing it).
    st.apply(SyncRequest::lockAcquire(kLockVar), 1, gate());
    st.apply(SyncRequest::lockAcquire(kLockVar), 2, gate()); // queued
    auto g = st.apply(SyncRequest::condWait(kCondVar, kLockVar), 1,
                      gate());
    // The lock passes to core 2.
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0].core, 2u);

    // Signal: core 1 must re-acquire the lock (held by 2) first.
    EXPECT_TRUE(
        st.apply(SyncRequest::condSignal(kCondVar), 2, nullptr).empty());
    auto g2 = st.apply(SyncRequest::lockRelease(kLockVar), 2, nullptr);
    ASSERT_EQ(g2.size(), 1u);
    EXPECT_EQ(g2[0].core, 1u); // cond_wait finally returns
}

TEST_F(FlatStateTest, BroadcastWakesAllWaiters)
{
    // Queue three waiters.
    FlatSyncState fresh;
    for (CoreId c = 0; c < 3; ++c) {
        fresh.apply(SyncRequest::lockAcquire(kLockVar), c, gate());
        fresh.apply(SyncRequest::condWait(kCondVar, kLockVar), c, gate());
    }
    auto g =
        fresh.apply(SyncRequest::condBroadcast(kCondVar), 5, nullptr);
    // One waiter re-acquires immediately; the others queue on the lock.
    ASSERT_EQ(g.size(), 1u);
    auto g2 = fresh.apply(SyncRequest::lockRelease(kLockVar), g[0].core,
                          nullptr);
    ASSERT_EQ(g2.size(), 1u);
}

TEST_F(FlatStateTest, DestroyedLineIsReusedFromIdleState)
{
    // Leave every kind of residue on kVarA: an owner and a queued
    // waiter, a partial barrier round, a semaphore balance, a cond
    // waiter. destroy() must not let any of it leak into the line's
    // next primitive, nor into a fresh line that takes the slot.
    st.apply(SyncRequest::lockAcquire(kVarA), 1, gate());
    st.apply(SyncRequest::lockAcquire(kVarA), 2, gate());
    st.apply(SyncRequest::barrierWait(kVarA, BarrierScope::AcrossUnits, 3),
             3, gate());
    st.apply(SyncRequest::semPost(kVarA), 4, nullptr);
    st.apply(SyncRequest::lockAcquire(kLockVar), 5, gate());
    st.apply(SyncRequest::condWait(kVarA, kLockVar), 5, gate());
    EXPECT_FALSE(st.idle(kVarA));
    st.destroy(kVarA);
    EXPECT_TRUE(st.idle(kVarA));

    for (const Addr var : {kVarA, kVarB}) {
        // A lock: uncontended grant, then a clean release.
        auto g = st.apply(SyncRequest::lockAcquire(var), 6, gate());
        ASSERT_EQ(g.size(), 1u);
        EXPECT_EQ(g[0].core, 6u);
        EXPECT_TRUE(
            st.apply(SyncRequest::lockRelease(var), 6, nullptr).empty());
        // A semaphore with zero resources: no stale post lets it pass.
        EXPECT_TRUE(
            st.apply(SyncRequest::semWait(var, 0), 7, gate()).empty());
        EXPECT_EQ(st.apply(SyncRequest::semPost(var), 8, nullptr).size(),
                  1u);
        // A barrier of two: no stale arrival completes it early.
        const SyncRequest bar =
            SyncRequest::barrierWait(var, BarrierScope::AcrossUnits, 2);
        EXPECT_TRUE(st.apply(bar, 1, gate()).empty());
        EXPECT_EQ(st.apply(bar, 2, gate()).size(), 2u);
        // No stale cond waiter to wake.
        EXPECT_TRUE(
            st.apply(SyncRequest::condSignal(var), 3, nullptr).empty());
        EXPECT_TRUE(st.idle(var));
        st.destroy(var);
    }
}

TEST_F(FlatStateTest, GrantsReadAfterALaterApplyPanic)
{
    auto first = st.apply(SyncRequest::lockAcquire(kVarA), 1, gate());
    ASSERT_EQ(first.size(), 1u);
    st.apply(SyncRequest::lockAcquire(kVarB), 2, gate());
    EXPECT_THROW(first.size(), std::logic_error);
    EXPECT_THROW(first[0], std::logic_error);
}

TEST(PendingOps, AnyWhileACountIsInFlight)
{
    PendingOps p;
    EXPECT_FALSE(p.any(kVarA));
    p.inc(kVarA);
    p.inc(kVarA);
    p.inc(kVarB);
    EXPECT_TRUE(p.any(kVarA));
    p.dec(kVarA);
    EXPECT_TRUE(p.any(kVarA)) << "one of two still in flight";
    p.dec(kVarA);
    EXPECT_FALSE(p.any(kVarA));
    EXPECT_TRUE(p.any(kVarB));
    p.dec(kVarB);
    EXPECT_FALSE(p.any(kVarB));
    p.dec(kVarC); // a stray decrement is a no-op
    EXPECT_FALSE(p.any(kVarC));
}

TEST_F(FlatStateTest, RequestPayloadAccessorsAreKindChecked)
{
    const SyncRequest bar =
        SyncRequest::barrierWait(kVarB, BarrierScope::WithinUnit, 4);
    EXPECT_EQ(bar.kind(), OpKind::BarrierWaitWithinUnit);
    EXPECT_EQ(bar.participants(), 4u);
    EXPECT_THROW(bar.resources(), std::logic_error);
    EXPECT_THROW(bar.condLock(), std::logic_error);

    const SyncRequest cw = SyncRequest::condWait(kCondVar, kLockVar);
    EXPECT_EQ(cw.condLock(), kLockVar);
    EXPECT_EQ(cw.messageInfo(), kLockVar);
    EXPECT_THROW(cw.participants(), std::logic_error);

    // Wire round trip: messageInfo() is invertible.
    const SyncRequest sem = SyncRequest::semWait(kVarC, 7);
    const SyncRequest back = SyncRequest::fromMessageInfo(
        sem.kind(), sem.var(), sem.messageInfo());
    EXPECT_EQ(back, sem);
    EXPECT_EQ(back.resources(), 7u);
}

/** Property sweep: random lock/sem traffic never loses a grant. */
class FlatStateProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FlatStateProperty, RandomLockTrafficConserved)
{
    sim::EventQueue eq;
    FlatSyncState st;
    Rng rng(GetParam());
    std::vector<std::unique_ptr<sim::Gate>> gates;

    const int cores = 8;
    const Addr var = 0xF00;
    std::vector<bool> holds(cores, false);
    std::vector<bool> waiting(cores, false);
    int grants = 0, acquires = 0;

    auto noteGrants = [&](const FlatSyncState::Grants &gs) {
        for (const SyncGrant &g : gs) {
            EXPECT_TRUE(waiting[g.core]);
            waiting[g.core] = false;
            holds[g.core] = true;
            ++grants;
        }
    };

    for (int step = 0; step < 2000; ++step) {
        const int c = static_cast<int>(rng.below(cores));
        if (holds[c]) {
            noteGrants(
                st.apply(SyncRequest::lockRelease(var), c, nullptr));
            holds[c] = false;
        } else if (!waiting[c]) {
            gates.push_back(std::make_unique<sim::Gate>(eq));
            waiting[c] = true;
            ++acquires;
            noteGrants(st.apply(SyncRequest::lockAcquire(var), c,
                                gates.back().get()));
        }
    }
    // Drain: release holders, everyone eventually gets the lock.
    for (int round = 0; round < cores * 4; ++round) {
        for (int c = 0; c < cores; ++c) {
            if (holds[c]) {
                noteGrants(
                    st.apply(SyncRequest::lockRelease(var), c, nullptr));
                holds[c] = false;
            }
        }
    }
    EXPECT_EQ(grants, acquires);
    EXPECT_TRUE(st.idle(var));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatStateProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
} // namespace syncron::sync
