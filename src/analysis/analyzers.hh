/**
 * @file
 * The sync-correctness analysis engine: three analyses over one
 * synchronization-operation event stream.
 *
 *  1. Eraser-style lockset race checker. Workloads report accesses to
 *     lock-protected shadow state through SyncApi::accessHint(); the
 *     checker refines, per address, the candidate set of locks that
 *     were held on every access, through the classic state machine
 *     (Virgin -> Exclusive -> Shared -> SharedModified, refining only
 *     once a second core appears so single-owner initialization never
 *     false-positives) and reports a write whose candidate set is
 *     empty, with the previous writer as witness.
 *
 *  2. Lock-order deadlock analyzer. Maintains each core's held-lock
 *     set from the operation stream (LockSet members are ordinary
 *     locks; ScopedLock scope-exit releases appear as detached release
 *     records; cond_wait counts as release of the associated lock at
 *     issue and reacquisition at completion) and accumulates the
 *     held-before graph: an edge A -> B for every acquire of B while
 *     holding A, with the first (core, ticks) witness kept per edge.
 *     finish() reports every cycle with its full witness path.
 *
 *  3. Misuse linter: the checks of the engine's SyncStateModel (lock
 *     ownership, barrier arity and arrival conservation, semaphore
 *     underflow, locks held at teardown; see analysis/state_model.hh)
 *     plus pending-operation leaks at teardown (live only: issue
 *     events have no offline counterpart).
 *
 * The engine is deliberately driven by plain OpEvent values rather
 * than live simulator types: the live path (analysis::LiveAnalyzer)
 * and the offline path (analysis::analyzeTrace) feed the same engine,
 * and tests can seed defect scenarios directly.
 *
 * Stream contract: events arrive in completion order, which equals
 * simulation-event order (per core this is program order — the cores
 * are in-order). Primitive identities are dense ids, never recycled
 * within one engine's lifetime.
 */

#ifndef SYNCRON_ANALYSIS_ANALYZERS_HH
#define SYNCRON_ANALYSIS_ANALYZERS_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "analysis/report.hh"
#include "analysis/state_model.hh"
#include "common/addr_map.hh"
#include "common/types.hh"

namespace syncron::analysis {

/** The combined analysis engine; see the file comment. */
class AnalysisEngine
{
  public:
    explicit AnalysisEngine(MachineShape shape)
        : model_(shape), held_(shape.totalClientCores()),
          outstanding_(shape.totalClientCores())
    {}

    /** First witness of one held-before edge (public for reporting). */
    struct EdgeWitness
    {
        std::uint32_t core;
        Tick fromTick; ///< when the held (from) lock was acquired
        Tick toTick;   ///< when the new (to) lock was acquired/issued
    };

    /**
     * An operation was issued. Optional (traces carry completions
     * only); when fed, enables the pending-op-leak check and lets the
     * lock-order analyzer see acquires that never complete — the
     * in-flight half of an actual deadlock.
     */
    void onIssue(const OpEvent &ev);

    /** An operation completed. The main event. */
    void onComplete(const OpEvent &ev);

    /** A core touched shadow state (SyncApi::accessHint). */
    void onAccess(std::uint32_t core, Addr addr, bool isWrite, Tick tick);

    /**
     * The stream crossed a crash/recovery boundary at @p tick.
     * Primitives seen before this point are stale unless their identity
     * appears in @p reminted (recovery re-created them); any later
     * operation on a stale primitive is flagged as StaleGenerationUse —
     * post-crash code holding a pre-crash handle that recovery never
     * re-minted (once per primitive).
     */
    void noteCrashRecovery(Tick tick,
                           const std::set<std::uint64_t> &reminted);

    /**
     * Ends the stream: runs cycle detection, semaphore-balance replay,
     * and the teardown checks, and returns everything found. Call once.
     */
    AnalysisReport finish();

  private:
    // -- Shared held-lock tracking -------------------------------------
    struct HeldLock
    {
        std::uint64_t prim;
        Tick since; ///< acquisition completion tick
    };

    std::vector<HeldLock> &heldOf(std::uint32_t core);
    void removeHeld(std::uint32_t core, std::uint64_t prim);

    // -- Lock-order analyzer -------------------------------------------
    void addOrderEdges(std::uint32_t core, std::uint64_t to, Tick toTick);
    void reportCycles(AnalysisReport &report);

    /**
     * Processes a release at its SE-side commit point. When issue
     * events flow (live streams), that point is the release's ISSUE:
     * pipelined/batched release records complete out of order, but the
     * issue event sits at the exact simulated moment the SE commits the
     * release, keeping the held set — and therefore the order edges —
     * exact. A release issued while its own acquire is still in flight
     * (a coalesced acquire+release pair) is parked and consumed the
     * moment that acquire completes.
     */
    void commitRelease(std::uint32_t core, std::uint64_t prim,
                       Tick tick);

    void lintStaleGeneration(const OpEvent &ev, Tick tick);

    /** One flat-table key for a (core, lock) pair; panics when the
     *  pair does not pack (core >= 2^31 or prim >= 2^32). */
    static Addr pairKey(std::uint32_t core, std::uint64_t prim);

    // -- Lockset race checker ------------------------------------------
    enum class AccessState
    {
        Virgin,         ///< never accessed
        Exclusive,      ///< one core only so far (initialization)
        Shared,         ///< read-shared across cores
        SharedModified, ///< written while shared — races reportable
    };

    struct ShadowWord
    {
        AccessState state = AccessState::Virgin;
        std::uint32_t firstCore = 0;
        /** Candidate locks; meaningful once refined (past Exclusive). */
        std::set<std::uint64_t> candidates;
        bool reported = false;
        bool everWritten = false;
        std::uint32_t lastWriterCore = 0;
        Tick lastWriteTick = 0;
    };

    SyncStateModel model_;
    AnalysisReport report_;
    bool finished_ = false;

    std::vector<std::vector<HeldLock>> held_; ///< per core
    /// held-before graph: from -> (to -> first witness)
    std::map<std::uint64_t, std::map<std::uint64_t, EdgeWitness>> order_;
    std::map<Addr, ShadowWord> shadow_;
    /// live only: per-core outstanding (issued - completed) op count
    std::vector<std::int64_t> outstanding_;
    /// live only: (core, lock) -> acquires issued but not yet completed
    common::AddrMap<unsigned> inflightAcquires_;
    /// live only: (core, lock) -> releases issued before their own
    /// acquire completed (coalesced pairs); consumed at that completion
    common::AddrMap<unsigned> preIssuedReleases_;
    bool sawIssues_ = false;

    // -- Crash/recovery generation tracking ----------------------------
    /// every primitive identity seen so far (issue or completion)
    std::vector<std::uint8_t> seenPrims_; ///< by dense id
    bool crashSeen_ = false;
    Tick crashTick_ = 0;
    /// identities live before the crash, minus those recovery re-minted
    std::set<std::uint64_t> stalePrims_;
    std::set<std::uint64_t> staleReported_;
};

} // namespace syncron::analysis

#endif // SYNCRON_ANALYSIS_ANALYZERS_HH
