/**
 * @file
 * The sync-state model: the logical state behind SynCron's lock,
 * barrier and semaphore semantics, derived from an operation stream,
 * and the checks it carries. AnalysisEngine owns one for its misuse
 * lint; durability::RecoveryEngine and harness::runCrashSweep drive it
 * over WAL records.
 *
 * Per primitive: a lock's owner, owned-since tick, last releaser and
 * displaced owners; a barrier's first-seen arity and per-core arrivals
 * over its scope (all client cores, or the first waiter's unit for a
 * within-unit barrier); a semaphore's initial value, per-core balance,
 * post issue ticks and grants. Checks: release without acquire, double
 * release, double grant (live), barrier arity, barrier arrival
 * conservation (on a barrier whose arity covers its scope no core gets
 * two rounds ahead of another; a partial barrier's members are not in
 * the stream), semaphore underflow (a tick-ordered post/grant merge,
 * so late post records never skew it) and locks held at teardown.
 *
 * Offline streams (traces, WALs) carry completions only. A
 * fire-and-forget release commits SE-side at issue but is recorded
 * late, so the next owner's grant can come first: the grant displaces
 * the owner onto a pending list and its late release is matched, not
 * flagged; cond_wait releases and reacquires its lock at completion.
 * Live streams also carry issue events, which sit where the SE commits
 * a release, so ownership is strict: cond_wait releases its lock at
 * issue, lock releases arrive through release() at their commit point
 * (see AnalysisEngine::commitRelease), and a grant on a lock another
 * core owns is a double grant. cond_signal/cond_broadcast are ignored
 * (no wakeup rule yet).
 */

#ifndef SYNCRON_ANALYSIS_STATE_MODEL_HH
#define SYNCRON_ANALYSIS_STATE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/report.hh"
#include "common/types.hh"
#include "sync/opcodes.hh"

namespace syncron::analysis {

/** Machine shape the analyzed stream ran on (barrier scopes). */
struct MachineShape
{
    std::uint32_t numUnits = 0;
    std::uint32_t clientCoresPerUnit = 0;

    std::uint32_t
    totalClientCores() const
    {
        return numUnits * clientCoresPerUnit;
    }
};

/** One synchronization operation, decoupled from simulator types. */
struct OpEvent
{
    std::uint32_t core = 0; ///< dense client-core index
    sync::OpKind kind = sync::OpKind::LockAcquire;
    std::uint64_t prim = 0;  ///< primitive identity (dense id)
    std::uint64_t assoc = 0; ///< cond_wait's associated lock identity
    Tick issued = 0;
    Tick completed = 0;
    std::uint32_t participants = 0; ///< barrier arity (barrier_wait)
    std::uint32_t resources = 0;    ///< initial resources (sem_wait)
};

/**
 * @p v[@p i], growing @p v to cover it: the analysis tables indexed by
 * dense core or primitive id. Growing moves every entry, so hold no
 * reference across a call.
 */
template <typename T>
T &
grown(std::vector<T> &v, std::size_t i)
{
    if (i >= v.size())
        v.resize(i + 1);
    return v[i];
}

/** Lock/barrier/semaphore state of one stream; see the file comment. */
class SyncStateModel
{
  public:
    explicit SyncStateModel(MachineShape shape) : shape_(shape) {}

    /** An operation was issued; switches the model to live ordering. */
    void onIssue(const OpEvent &ev);

    /** An operation completed (stream order). */
    void onComplete(const OpEvent &ev);

    /**
     * Releases @p prim by @p core: called by onComplete() offline, and
     * by the owner of a live stream at the release's commit point.
     */
    void release(std::uint32_t core, std::uint64_t prim, Tick issued,
                 Tick completed);

    /**
     * End-of-stream checks: the semaphore merge and, at @p teardown,
     * every lock still owned. Call once.
     */
    void checkInvariants(bool teardown = false);

    /** Everything found so far. */
    const std::vector<Finding> &findings() const { return findings_; }

    /** No lock owned, no release pending, every semaphore restored. */
    bool idle() const;

    /**
     * Logical-state equality: lock ownership and pending releases,
     * semaphore balances, and barrier arrival counts. Ticks are
     * excluded: a resumed run reaches the same state on another clock.
     */
    bool sameStateAs(const SyncStateModel &other) const;

  private:
    struct LockState
    {
        bool owned = false;
        std::uint32_t owner = 0;
        Tick ownedSince = 0;
        bool everReleased = false;
        std::uint32_t lastReleaser = 0;
        Tick lastReleaseTick = 0;
        /**
         * Displaced former owners whose release has not arrived yet,
         * counted (a core can be displaced again before its old record
         * drains). Offline streams only.
         */
        std::map<std::uint32_t, unsigned> pendingReleases;
    };

    struct BarrierState
    {
        std::uint32_t participants = 0; ///< first-seen arity
        bool reported = false;
        std::uint32_t firstCore = 0; ///< scope's first core
        /** Per scope core; empty until the first arrival. */
        std::vector<std::uint64_t> arrivals;
        std::uint64_t lo = 0;   ///< minimum of arrivals
        std::uint32_t atLo = 0; ///< scope cores with lo arrivals
    };

    struct SemState
    {
        bool initKnown = false;
        std::uint32_t initial = 0;
        std::vector<std::int64_t> balance; ///< per core, waits - posts
        std::vector<Tick> postTicks; ///< post issue ticks
        struct Grant
        {
            Tick tick; ///< wait completion tick
            std::uint32_t core;
        };
        std::vector<Grant> grants;
    };

    /** Grants @p prim to @p core (strict when live). */
    void grant(std::uint32_t core, std::uint64_t prim, Tick tick);
    /** Takes @p prim from @p core as owner or displaced owner. */
    bool dropOwnership(LockState &s, std::uint32_t core, Tick tick);
    void condRelease(const OpEvent &ev);
    void lintBarrier(const OpEvent &ev);
    void arrive(const OpEvent &ev);
    void semaphore(const OpEvent &ev, bool wait);

    /** Flattened logical state (see sameStateAs()). */
    std::vector<std::int64_t> logicalState() const;

    void report(FindingKind kind, std::string message, std::uint32_t core,
                std::uint64_t prim, Tick tick,
                std::vector<WitnessStep> witness = {});

    MachineShape shape_;
    bool live_ = false;
    /// Per primitive, by dense id. An id the stream has not touched
    /// holds default state, which every check and logicalState() read
    /// as absent; loops run in ascending id.
    std::vector<LockState> locks_;
    std::vector<BarrierState> barriers_;
    std::vector<SemState> sems_;
    std::vector<Finding> findings_;
};

/** "prim#<id>", the primitive spelling findings use. */
std::string primName(std::uint64_t prim);

} // namespace syncron::analysis

#endif // SYNCRON_ANALYSIS_STATE_MODEL_HH
