/**
 * @file
 * Sync-correctness analysis tests: seeded defect scenarios must be
 * reported with an exact witness (direct engine and live observer), and
 * the entire legitimate workload surface — all nine Table 6 structures,
 * every primitive microbenchmark, every synthetic scenario family —
 * must analyze with zero findings on multiple backends (the ROADMAP
 * "analysis-clean" invariant).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/analyzers.hh"
#include "analysis/live.hh"
#include "analysis/report.hh"
#include "analysis/state_model.hh"
#include "analysis/trace_analysis.hh"
#include "harness/runner.hh"
#include "system/system.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/scenario.hh"
#include "workloads/datastructures/structures.hh"

namespace syncron::analysis {
namespace {

// --------------------------------------------------------------------
// Direct-engine seeded defects
// --------------------------------------------------------------------

/** A completed lock/sem/cond op at [t, t+1]. */
OpEvent
ev(sync::OpKind kind, std::uint32_t core, std::uint64_t prim, Tick t)
{
    OpEvent e;
    e.kind = kind;
    e.core = core;
    e.prim = prim;
    e.issued = t;
    e.completed = t + 1;
    return e;
}

unsigned
countKind(const AnalysisReport &r, FindingKind kind)
{
    unsigned n = 0;
    for (const Finding &f : r.findings)
        n += f.kind == kind ? 1 : 0;
    return n;
}

const Finding &
firstOfKind(const AnalysisReport &r, FindingKind kind)
{
    for (const Finding &f : r.findings) {
        if (f.kind == kind)
            return f;
    }
    throw std::runtime_error("no finding of the requested kind");
}

TEST(AnalysisEngine, AbBaLockOrderCycleReportedWithWitness)
{
    AnalysisEngine eng(MachineShape{1, 4});
    // Core 0: A then B. Core 1: B then A — time-separated, so this is
    // the pure order inversion (no operation ever blocks).
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 2, 20));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 2, 30));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 40));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 2, 50));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 1, 60));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 1, 70));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 2, 80));

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::LockOrderCycle), 1u)
        << "exactly one canonical cycle expected";
    const Finding &f = firstOfKind(r, FindingKind::LockOrderCycle);
    ASSERT_EQ(f.witness.size(), 2u) << "one witness step per edge";
    // Each edge witness names the acquiring core and the issue tick of
    // the edge-closing acquire.
    EXPECT_EQ(f.witness[0].core, 0u);
    EXPECT_EQ(f.witness[0].prim, 2u) << "core 0 acquired #2 holding #1";
    EXPECT_EQ(f.witness[0].tick, 21u);
    EXPECT_EQ(f.witness[1].core, 1u);
    EXPECT_EQ(f.witness[1].prim, 1u) << "core 1 acquired #1 holding #2";
    EXPECT_EQ(f.witness[1].tick, 61u);
    EXPECT_EQ(countKind(r, FindingKind::ReleaseWithoutAcquire), 0u);
    EXPECT_EQ(countKind(r, FindingKind::LockHeldAtTeardown), 0u);
}

TEST(AnalysisEngine, InFlightAcquireStillClosesTheCycle)
{
    // The second half of an ACTUAL deadlock never completes; the
    // issue-time edge must close the cycle anyway.
    AnalysisEngine eng(MachineShape{1, 4});
    eng.onIssue(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onIssue(ev(sync::OpKind::LockAcquire, 1, 2, 12));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 2, 12));
    eng.onIssue(ev(sync::OpKind::LockAcquire, 0, 2, 20));  // blocks
    eng.onIssue(ev(sync::OpKind::LockAcquire, 1, 1, 22));  // blocks
    const AnalysisReport r = eng.finish();
    EXPECT_EQ(countKind(r, FindingKind::LockOrderCycle), 1u);
    // Both blocked acquires are also pending-op leaks — that is the
    // deadlock's other signature and must be reported per core.
    EXPECT_EQ(countKind(r, FindingKind::PendingOpLeak), 2u);
}

TEST(AnalysisEngine, StaleGenerationUseAfterCrashRecovery)
{
    AnalysisEngine eng(MachineShape{1, 2});
    // Pre-crash generation: locks #1 and #2 both in use.
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 20));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 2, 30));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 2, 40));

    // Crash at tick 50; recovery re-minted #2 only.
    eng.noteCrashRecovery(50, {2});

    // Re-minted #2 is fine. #1 is a stale pre-crash handle — flagged
    // once, however many post-crash ops touch it. #3, first seen after
    // the crash, is a fresh generation and must not be flagged.
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 2, 60));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 2, 70));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 80));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 90));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 3, 100));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 3, 110));

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::StaleGenerationUse), 1u);
    const Finding &f = firstOfKind(r, FindingKind::StaleGenerationUse);
    EXPECT_EQ(f.prim, 1u);
    EXPECT_EQ(f.core, 0u);
    EXPECT_EQ(f.tick, 81u)
        << "flagged at the first post-crash completion on the stale "
           "primitive";
    EXPECT_NE(f.message.find("stale generation"), std::string::npos)
        << f.message;
    EXPECT_STREQ(findingKindName(FindingKind::StaleGenerationUse),
                 "stale-generation-use");
}

TEST(AnalysisEngine, NoStaleGenerationWithoutCrash)
{
    // The same stream minus the crash boundary stays clean.
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 20));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 80));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 90));
    const AnalysisReport r = eng.finish();
    EXPECT_EQ(countKind(r, FindingKind::StaleGenerationUse), 0u);
}

TEST(AnalysisEngine, EmptyLocksetRaceReportedWithBothAccesses)
{
    AnalysisEngine eng(MachineShape{1, 2});
    const Addr addr = 0x4000;
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 7, 10));
    eng.onAccess(0, addr, true, 12);
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 7, 14));
    eng.onAccess(1, addr, true, 20); // second core, no lock held

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::EmptyLocksetRace), 1u);
    const Finding &f = firstOfKind(r, FindingKind::EmptyLocksetRace);
    EXPECT_EQ(f.core, 1u);
    EXPECT_EQ(f.prim, addr);
    EXPECT_EQ(f.tick, 20u);
    ASSERT_EQ(f.witness.size(), 2u);
    EXPECT_EQ(f.witness[0].core, 0u) << "previous access as witness";
    EXPECT_EQ(f.witness[1].core, 1u) << "racing access as witness";
}

TEST(AnalysisEngine, ConsistentlyLockedAccessesStayClean)
{
    AnalysisEngine eng(MachineShape{1, 2});
    const Addr addr = 0x4000;
    for (std::uint32_t core : {0u, 1u, 0u, 1u}) {
        const Tick t = 100 * (core + 1);
        eng.onComplete(ev(sync::OpKind::LockAcquire, core, 7, t));
        eng.onAccess(core, addr, true, t + 2);
        eng.onComplete(ev(sync::OpKind::LockRelease, core, 7, t + 4));
    }
    EXPECT_TRUE(eng.finish().clean());
}

TEST(AnalysisEngine, DoubleReleaseReportedWithPreviousRelease)
{
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 3, 10));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 20));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 30));

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::DoubleRelease), 1u);
    const Finding &f = firstOfKind(r, FindingKind::DoubleRelease);
    EXPECT_EQ(f.core, 0u);
    EXPECT_EQ(f.prim, 3u);
    ASSERT_EQ(f.witness.size(), 2u);
    EXPECT_EQ(f.witness[0].tick, 21u) << "previous release tick";
    EXPECT_EQ(f.witness[1].tick, 30u) << "offending release issue";
}

TEST(AnalysisEngine, ReleaseWithoutAcquireReported)
{
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 5, 10));
    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::ReleaseWithoutAcquire), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::ReleaseWithoutAcquire).core,
              1u);
}

TEST(AnalysisEngine, DelayedAsyncReleaseRecordIsNotFlagged)
{
    // Fire-and-forget releases commit SE-side at issue but are recorded
    // at future drop, so the next owner's acquire can be recorded
    // first; the displaced owner's delayed release is legitimate.
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 3, 10));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 3, 20)); // displaces
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 20)); // delayed
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 3, 30));
    EXPECT_TRUE(eng.finish().clean());
}

TEST(AnalysisEngine, BarrierArityBeyondMachineShapeReported)
{
    AnalysisEngine eng(MachineShape{1, 4});
    OpEvent e = ev(sync::OpKind::BarrierWaitAcrossUnits, 0, 9, 10);
    e.participants = 5; // machine has 4 client cores
    eng.onComplete(e);
    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::BarrierArityMismatch), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::BarrierArityMismatch).prim,
              9u);
}

TEST(AnalysisEngine, BarrierArityChangeAcrossWaitsReported)
{
    AnalysisEngine eng(MachineShape{2, 4});
    OpEvent e = ev(sync::OpKind::BarrierWaitAcrossUnits, 0, 9, 10);
    e.participants = 3;
    eng.onComplete(e);
    e = ev(sync::OpKind::BarrierWaitAcrossUnits, 1, 9, 20);
    e.participants = 2;
    eng.onComplete(e);
    EXPECT_EQ(countKind(eng.finish(),
                        FindingKind::BarrierArityMismatch),
              1u)
        << "reported once per barrier";
}

TEST(AnalysisEngine, SemaphoreUnderflowReported)
{
    AnalysisEngine eng(MachineShape{1, 2});
    OpEvent e = ev(sync::OpKind::SemWait, 0, 4, 10);
    e.resources = 0; // zero initial resources, no post ever
    eng.onComplete(e);
    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::SemaphoreUnderflow), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::SemaphoreUnderflow).prim, 4u);
}

TEST(AnalysisEngine, LateRecordedPostsBalanceByIssueTick)
{
    // The post's completion RECORD arrives after the grant it enabled
    // (awaited batch future); the issue-tick merge keeps this clean.
    AnalysisEngine eng(MachineShape{1, 2});
    OpEvent wait = ev(sync::OpKind::SemWait, 0, 4, 19);
    wait.resources = 0;
    eng.onComplete(wait);
    OpEvent post = ev(sync::OpKind::SemPost, 1, 4, 5);
    post.completed = 100; // recorded long after the grant
    eng.onComplete(post);
    EXPECT_TRUE(eng.finish().clean());
}

TEST(AnalysisEngine, TeardownLeaksReported)
{
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onIssue(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    // Never released; plus core 1 issues an acquire that never
    // completes.
    eng.onIssue(ev(sync::OpKind::LockAcquire, 1, 2, 20));
    const AnalysisReport r = eng.finish();
    EXPECT_EQ(countKind(r, FindingKind::LockHeldAtTeardown), 1u);
    ASSERT_EQ(countKind(r, FindingKind::PendingOpLeak), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::PendingOpLeak).core, 1u);
}

TEST(AnalysisEngine, JsonReportCarriesKindAndWitness)
{
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 3, 10));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 20));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 30));
    const AnalysisReport r = eng.finish();

    std::ostringstream os;
    r.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"clean\""), std::string::npos);
    EXPECT_NE(json.find("double-release"), std::string::npos);
    EXPECT_NE(json.find("\"witness\""), std::string::npos);

    std::ostringstream clean;
    AnalysisReport{}.writeJson(clean);
    EXPECT_NE(clean.str().find("true"), std::string::npos);
}

TEST(AnalysisEngine, CondHandoffLeavesNoStalePendingRelease)
{
    // Offline handoff: the signaler's grant displaces the waiter W, and
    // W's cond_wait completion reclaims the lock. W's own displaced-
    // owner entry must be consumed there, or W's bogus second release
    // is silently absorbed.
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10)); // W
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 1, 20)); // S
    eng.onComplete(ev(sync::OpKind::CondSignal, 1, 2, 30));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 1, 40));
    OpEvent wait = ev(sync::OpKind::CondWait, 0, 2, 15);
    wait.assoc = 1;
    wait.completed = 50;
    eng.onComplete(wait);
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 60));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 70));

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(r.findings.size(), 1u);
    const Finding &f = firstOfKind(r, FindingKind::DoubleRelease);
    EXPECT_EQ(f.core, 0u);
    EXPECT_EQ(f.tick, 70u);
}

/** Feeds @p e as an issue and, unless @p inFlight, its completion. */
void
live(AnalysisEngine &eng, const OpEvent &e, bool inFlight = false)
{
    eng.onIssue(e);
    if (!inFlight)
        eng.onComplete(e);
}

TEST(AnalysisEngine, LiveDoubleGrantIsFlagged)
{
    // One release, two grants: core 1's grant is legitimate, core 2's
    // lands while core 1 still owns the lock.
    AnalysisEngine eng(MachineShape{1, 4});
    live(eng, ev(sync::OpKind::LockAcquire, 0, 1, 10));
    live(eng, ev(sync::OpKind::LockRelease, 0, 1, 20));
    live(eng, ev(sync::OpKind::LockAcquire, 1, 1, 30));
    live(eng, ev(sync::OpKind::LockAcquire, 2, 1, 31));
    live(eng, ev(sync::OpKind::LockRelease, 1, 1, 40));
    live(eng, ev(sync::OpKind::LockRelease, 2, 1, 50));

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(r.findings.size(), 1u) << "one bug, one finding";
    const Finding &f = firstOfKind(r, FindingKind::DoubleGrant);
    EXPECT_EQ(f.core, 2u);
    EXPECT_EQ(f.prim, 1u);
    EXPECT_EQ(f.tick, 32u);
    ASSERT_EQ(f.witness.size(), 2u);
    EXPECT_EQ(f.witness[0].core, 1u) << "the owner's grant";
    EXPECT_EQ(f.witness[0].tick, 31u);
    EXPECT_STREQ(findingKindName(FindingKind::DoubleGrant),
                 "double-grant");
}

TEST(AnalysisEngine, LiveCondWaitHandoffStaysClean)
{
    // W (core 0) waits on cond #2 holding lock #1; the SE releases #1
    // at the wait's issue, so the signaler's grant is no double grant.
    auto handoff = [](AnalysisEngine &eng) {
        live(eng, ev(sync::OpKind::LockAcquire, 0, 1, 10));
        live(eng, ev(sync::OpKind::LockAcquire, 1, 1, 15), true);
        OpEvent wait = ev(sync::OpKind::CondWait, 0, 2, 20);
        wait.assoc = 1;
        eng.onIssue(wait);
        OpEvent grant = ev(sync::OpKind::LockAcquire, 1, 1, 15);
        grant.completed = 25;
        eng.onComplete(grant);
        live(eng, ev(sync::OpKind::CondSignal, 1, 2, 30));
        live(eng, ev(sync::OpKind::LockRelease, 1, 1, 35));
        wait.completed = 40;
        eng.onComplete(wait);
        live(eng, ev(sync::OpKind::LockRelease, 0, 1, 50));
    };

    AnalysisEngine clean(MachineShape{1, 2});
    handoff(clean);
    EXPECT_TRUE(clean.finish().clean());

    // The same handoff plus a bogus second release by W.
    AnalysisEngine bogus(MachineShape{1, 2});
    handoff(bogus);
    live(bogus, ev(sync::OpKind::LockRelease, 0, 1, 60));
    const AnalysisReport r = bogus.finish();
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::DoubleRelease).core, 0u);
}

TEST(AnalysisEngine, BarrierArrivalSpreadOfTwoRoundsReported)
{
    AnalysisEngine eng(MachineShape{2, 2});
    // Within-unit barrier #10, used for many rounds by unit 1 alone:
    // its scope is unit 1's cores, so unit 0's silence is no spread.
    for (Tick t = 10; t < 100; t += 10) {
        for (std::uint32_t core : {2u, 3u}) {
            OpEvent e = ev(sync::OpKind::BarrierWaitWithinUnit, core, 10,
                           t);
            e.participants = 2;
            eng.onComplete(e);
        }
    }
    // Across-units barrier #9: core 0 completes two rounds while the
    // other three cores complete none.
    for (Tick t : {200, 210}) {
        OpEvent e = ev(sync::OpKind::BarrierWaitAcrossUnits, 0, 9, t);
        e.participants = 4;
        eng.onComplete(e);
    }

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(r.findings.size(), 1u);
    const Finding &f = firstOfKind(r, FindingKind::BarrierNotConserved);
    EXPECT_EQ(f.prim, 9u);
    EXPECT_EQ(f.core, 0u);
    EXPECT_EQ(f.tick, 211u);
}

// --------------------------------------------------------------------
// Sync-state model (the state recovery and the crash sweep check)
// --------------------------------------------------------------------

TEST(SyncStateModel, CleanLockStreamIsIdleAndSelfEqual)
{
    SyncStateModel a(MachineShape{1, 2});
    a.onComplete(ev(sync::OpKind::LockAcquire, 0, 0, 10));
    a.onComplete(ev(sync::OpKind::LockRelease, 0, 0, 20));
    a.onComplete(ev(sync::OpKind::LockAcquire, 1, 0, 30));
    a.onComplete(ev(sync::OpKind::LockRelease, 1, 0, 40));
    a.checkInvariants();
    EXPECT_TRUE(a.findings().empty());
    EXPECT_TRUE(a.idle());

    SyncStateModel b(MachineShape{1, 2});
    b.onComplete(ev(sync::OpKind::LockAcquire, 1, 0, 5));
    b.onComplete(ev(sync::OpKind::LockRelease, 1, 0, 6));
    EXPECT_TRUE(a.sameStateAs(b)) << "ticks must not affect equality";

    SyncStateModel held(MachineShape{1, 2});
    held.onComplete(ev(sync::OpKind::LockAcquire, 0, 0, 10));
    EXPECT_FALSE(held.idle());
    EXPECT_FALSE(a.sameStateAs(held));
}

/** Touches locks, a barrier and semaphores with ids first seen in the
 *  order 5, 2, 9, leaving every one of them non-idle. */
void
feedOutOfOrderIds(SyncStateModel &m)
{
    m.onComplete(ev(sync::OpKind::LockAcquire, 0, 5, 10));
    m.onComplete(ev(sync::OpKind::LockAcquire, 1, 2, 20));
    m.onComplete(ev(sync::OpKind::LockAcquire, 2, 9, 30));
    for (std::uint64_t prim : {7u, 3u}) {
        OpEvent wait = ev(sync::OpKind::SemWait, 1, prim, 40);
        wait.resources = 0; // underflows: no resources, no post
        m.onComplete(wait);
    }
    OpEvent bar = ev(sync::OpKind::BarrierWaitAcrossUnits, 3, 4, 50);
    bar.participants = 4;
    m.onComplete(bar);
}

TEST(SyncStateModel, FindingsComeOutInAscendingPrimitiveId)
{
    SyncStateModel m(MachineShape{2, 2});
    feedOutOfOrderIds(m);
    m.checkInvariants(true);
    std::vector<std::pair<FindingKind, std::uint64_t>> got;
    for (const Finding &f : m.findings())
        got.emplace_back(f.kind, f.prim);
    const std::vector<std::pair<FindingKind, std::uint64_t>> want = {
        {FindingKind::LockHeldAtTeardown, 2},
        {FindingKind::LockHeldAtTeardown, 5},
        {FindingKind::LockHeldAtTeardown, 9},
        {FindingKind::SemaphoreUnderflow, 3},
        {FindingKind::SemaphoreUnderflow, 7},
    };
    EXPECT_EQ(got, want);

    // The same stream in another model compares equal; one more
    // arrival on the barrier does not.
    SyncStateModel same(MachineShape{2, 2});
    feedOutOfOrderIds(same);
    EXPECT_TRUE(m.sameStateAs(same));
    EXPECT_TRUE(same.sameStateAs(m));
    OpEvent bar = ev(sync::OpKind::BarrierWaitAcrossUnits, 0, 4, 60);
    bar.participants = 4;
    same.onComplete(bar);
    EXPECT_FALSE(m.sameStateAs(same));
}

TEST(AnalysisEngine, TeardownFindingsComeOutInAscendingPrimitiveId)
{
    // Live stream: acquires in flight on the flat (core, prim) table
    // while locks 5, 2 and 9 are first touched out of order.
    AnalysisEngine eng(MachineShape{1, 4});
    for (auto [core, prim] : {std::pair{0u, 5u}, {1u, 2u}, {2u, 9u}}) {
        eng.onIssue(ev(sync::OpKind::LockAcquire, core, prim, 10));
        eng.onComplete(ev(sync::OpKind::LockAcquire, core, prim, 10));
    }
    // A release issued before its own acquire completes is parked and
    // committed at that completion: lock 2 ends up free again.
    eng.onIssue(ev(sync::OpKind::LockRelease, 1, 2, 20));
    eng.onIssue(ev(sync::OpKind::LockAcquire, 3, 2, 30));
    eng.onIssue(ev(sync::OpKind::LockRelease, 3, 2, 31));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 2, 20));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 3, 2, 32));
    eng.onComplete(ev(sync::OpKind::LockRelease, 3, 2, 33));
    const AnalysisReport r = eng.finish();
    std::vector<std::uint64_t> held;
    for (const Finding &f : r.findings) {
        EXPECT_EQ(f.kind, FindingKind::LockHeldAtTeardown) << f.message;
        held.push_back(f.prim);
    }
    EXPECT_EQ(held, (std::vector<std::uint64_t>{5, 9}));
}

TEST(SyncStateModel, DetectsSemaphoreUnderflow)
{
    SyncStateModel m(MachineShape{1, 2});
    // A wait granted against zero initial resources and no post.
    OpEvent wait = ev(sync::OpKind::SemWait, 0, 0, 10);
    wait.resources = 0;
    m.onComplete(wait);
    m.checkInvariants();
    ASSERT_EQ(m.findings().size(), 1u);
    EXPECT_EQ(m.findings()[0].kind, FindingKind::SemaphoreUnderflow);
}

// --------------------------------------------------------------------
// Live observer: seeded defects through a real system
// --------------------------------------------------------------------

sim::Process
orderedPairWorker(NdpSystem &sys, core::Core &c, sync::Lock first,
                  sync::Lock second, unsigned delay)
{
    sync::SyncApi &api = sys.api();
    co_await c.compute(delay);
    co_await api.acquire(c, first);
    co_await c.compute(10);
    co_await api.acquire(c, second);
    co_await c.compute(10);
    co_await api.release(c, second);
    co_await api.release(c, first);
}

TEST(LiveAnalysis, LockOrderInversionIsCaught)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 1, 2);
    cfg.analyze = true;
    cfg.analyzeFatal = false; // inspect the report instead
    NdpSystem sys(cfg);
    sync::Lock a = sys.api().createLock(0);
    sync::Lock b = sys.api().createLock(0);
    // Time-separated AB / BA: never an actual deadlock, always an
    // order inversion.
    sys.spawn(orderedPairWorker(sys, sys.clientCore(0), a, b, 0));
    sys.spawn(orderedPairWorker(sys, sys.clientCore(1), b, a, 5000));
    sys.run();

    ASSERT_NE(sys.analyzer(), nullptr);
    const AnalysisReport &r = sys.analyzer()->report();
    EXPECT_EQ(countKind(r, FindingKind::LockOrderCycle), 1u);
    EXPECT_EQ(countKind(r, FindingKind::LockHeldAtTeardown), 0u);
    EXPECT_EQ(countKind(r, FindingKind::PendingOpLeak), 0u);
}

sim::Process
hintedWriteWorker(NdpSystem &sys, core::Core &c, sync::Lock lock,
                  Addr addr, bool takeLock, unsigned delay)
{
    sync::SyncApi &api = sys.api();
    co_await c.compute(delay);
    if (takeLock)
        co_await api.acquire(c, lock);
    api.accessHint(c, addr, true);
    co_await c.store(addr, 8, core::MemKind::SharedRW);
    if (takeLock)
        co_await api.release(c, lock);
}

TEST(LiveAnalysis, UnlockedSharedWriteIsCaught)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 1, 2);
    cfg.analyze = true;
    cfg.analyzeFatal = false;
    NdpSystem sys(cfg);
    sync::Lock lock = sys.api().createLock(0);
    const Addr addr = 0x9000;
    sys.spawn(hintedWriteWorker(sys, sys.clientCore(0), lock, addr,
                                true, 0));
    sys.spawn(hintedWriteWorker(sys, sys.clientCore(1), lock, addr,
                                false, 5000));
    sys.run();

    const AnalysisReport &r = sys.analyzer()->report();
    ASSERT_EQ(countKind(r, FindingKind::EmptyLocksetRace), 1u);
    const Finding &f = firstOfKind(r, FindingKind::EmptyLocksetRace);
    EXPECT_EQ(f.core, 1u);
    EXPECT_EQ(f.prim, addr);
}

TEST(LiveAnalysis, FatalByDefaultOnFindings)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 1, 2);
    cfg.analyze = true; // analyzeFatal stays at its default (true)
    NdpSystem sys(cfg);
    sync::Lock a = sys.api().createLock(0);
    sync::Lock b = sys.api().createLock(0);
    sys.spawn(orderedPairWorker(sys, sys.clientCore(0), a, b, 0));
    sys.spawn(orderedPairWorker(sys, sys.clientCore(1), b, a, 5000));
    EXPECT_THROW(sys.run(), std::runtime_error);
}

// --------------------------------------------------------------------
// The analysis-clean invariant over the legitimate workload surface
// --------------------------------------------------------------------

TEST(AnalysisClean, AllNineStructuresOnSynCronAndCentral)
{
    for (Scheme scheme : {Scheme::SynCron, Scheme::Central}) {
        for (harness::DsKind kind : harness::kAllDsKinds) {
            SystemConfig cfg = SystemConfig::make(scheme, 2, 4);
            cfg.analyze = true; // fatal on any finding
            const harness::DsParams p = harness::dsDefaults(kind, 0.1);
            const harness::RunOutput out = harness::runDataStructure(
                cfg, kind, p.initialSize, p.opsPerCore);
            EXPECT_GT(out.ops, 0u)
                << harness::dsName(kind) << " on " << schemeName(scheme);
        }
    }
}

TEST(AnalysisClean, SkipListTowersTallerThanEightLevels)
{
    // 640 nodes cap towers at 10 levels: a tower's upper next pointers
    // (level >= 8) lie past the first 64 bytes of its node. Unless the
    // node holds them all, those unlink stores land in the next node,
    // which another lock guards — an empty-lockset race.
    for (Scheme scheme : {Scheme::Central, Scheme::SynCron}) {
        SystemConfig cfg = SystemConfig::make(scheme, 1, 15);
        cfg.analyze = true;
        cfg.analyzeFatal = false;
        NdpSystem sys(cfg);
        workloads::SimSkipList sl(sys, 640);
        for (unsigned i = 0; i < sys.numClientCores(); ++i)
            sys.spawn(sl.worker(sys.clientCore(i), 16));
        sys.run();
        ASSERT_NE(sys.analyzer(), nullptr);
        const AnalysisReport &r = sys.analyzer()->report();
        std::ostringstream os;
        r.print(os);
        EXPECT_TRUE(r.clean()) << schemeName(scheme) << "\n" << os.str();
    }
}

TEST(AnalysisClean, PrimitiveMicrobenchmarksIncludingCondAndSem)
{
    for (workloads::Primitive prim :
         {workloads::Primitive::Lock, workloads::Primitive::Barrier,
          workloads::Primitive::Semaphore,
          workloads::Primitive::CondVar}) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
        cfg.analyze = true;
        const harness::RunOutput out =
            harness::runPrimitive(cfg, prim, 100, 8);
        EXPECT_GT(out.ops, 0u);
    }
    // Batched fan-out posts recorded at await time — the async-record
    // stress case for the semaphore accounting.
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
    cfg.analyze = true;
    harness::runSemFanout(cfg, 4, 4, true);
    harness::runSemFanout(cfg, 4, 4, false);
}

TEST(AnalysisClean, ScenarioFamiliesLiveAndOffline)
{
    for (trace::ScenarioFamily family : trace::kAllScenarioFamilies) {
        trace::ScenarioSpec spec;
        spec.family = family;
        spec.numUnits = 2;
        spec.clientCoresPerUnit = 3;
        spec.opsPerCore = 6;
        spec.phases = 3;
        const trace::Trace t = trace::ScenarioGenerator(spec).generate();

        // Offline: the trace itself must be clean.
        EXPECT_TRUE(analyzeTrace(t).clean())
            << trace::scenarioFamilyName(family);

        // Live: replaying it with the observer installed must be too
        // (fatal on findings).
        SystemConfig cfg = trace::replayConfig(t, Scheme::SynCron);
        cfg.analyze = true;
        const harness::RunOutput out = harness::runTrace(cfg, t);
        EXPECT_EQ(out.ops, t.records.size())
            << trace::scenarioFamilyName(family);
    }
}

TEST(AnalysisClean, OfflineSeededDeadlockTraceIsNotClean)
{
    // Hand-built AB/BA trace: proves the offline adapter threads
    // records (incl. primitive identities) into the engine correctly.
    trace::Trace t;
    t.numUnits = 1;
    t.clientCoresPerUnit = 2;
    t.primitives.push_back(
        trace::TracePrimitive{trace::PrimKind::Lock, 0, 0,
                              sync::BarrierScope::AcrossUnits});
    t.primitives.push_back(
        trace::TracePrimitive{trace::PrimKind::Lock, 0, 0,
                              sync::BarrierScope::AcrossUnits});
    auto rec = [](Tick tick, std::uint32_t core, sync::OpKind kind,
                  std::uint32_t prim) {
        trace::TraceRecord r;
        r.issued = tick;
        r.completed = tick + 1;
        r.core = core;
        r.kind = kind;
        r.prim = prim;
        return r;
    };
    t.records.push_back(rec(10, 0, sync::OpKind::LockAcquire, 0));
    t.records.push_back(rec(20, 0, sync::OpKind::LockAcquire, 1));
    t.records.push_back(rec(30, 0, sync::OpKind::LockRelease, 1));
    t.records.push_back(rec(40, 0, sync::OpKind::LockRelease, 0));
    t.records.push_back(rec(50, 1, sync::OpKind::LockAcquire, 1));
    t.records.push_back(rec(60, 1, sync::OpKind::LockAcquire, 0));
    t.records.push_back(rec(70, 1, sync::OpKind::LockRelease, 0));
    t.records.push_back(rec(80, 1, sync::OpKind::LockRelease, 1));

    const AnalysisReport r = analyzeTrace(t);
    EXPECT_EQ(countKind(r, FindingKind::LockOrderCycle), 1u);
}

} // namespace
} // namespace syncron::analysis
