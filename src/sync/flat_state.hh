/**
 * @file
 * Flat (non-hierarchical) semantic state machine for all four
 * synchronization primitives.
 *
 * This is the functional core shared by the Ideal backend (zero cost),
 * the Central baseline (one software server for the whole system), and
 * the SynCron-flat ablation (one Master SE per variable, no local SEs).
 * It tracks owners/waiters/counts per variable and reports which waiting
 * cores become runnable after each operation; the calling backend
 * attaches its own timing and message costs.
 *
 * It is also the reference model against which the hierarchical SynCron
 * protocol is property-tested (same grants must eventually be produced).
 */

#ifndef SYNCRON_SYNC_FLAT_STATE_HH
#define SYNCRON_SYNC_FLAT_STATE_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "sim/process.hh"
#include "sync/opcodes.hh"
#include "sync/request.hh"

namespace syncron::sync {

/** A core whose pending operation has been granted. */
struct SyncGrant
{
    CoreId core = kInvalidCore;
    sim::Gate *gate = nullptr;
};

/**
 * Requests issued but not yet applied at their server, per variable:
 * keeps a backend's idleVar() honest about messages still in flight.
 * Counted up on the requester's shard and down on the server's, hence
 * the mutex; only read for its keys at quiescence.
 */
class PendingOps
{
  public:
    void
    inc(Addr var)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counts_[var];
    }

    void
    dec(Addr var)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = counts_.find(var);
        if (it != counts_.end() && --it->second == 0)
            counts_.erase(it);
    }

    /** True while some request on @p var is in flight. */
    bool
    any(Addr var) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counts_.count(var) != 0;
    }

  private:
    std::unordered_map<Addr, std::uint32_t> counts_;
    mutable std::mutex mu_;
};

/** Flat semantics for locks, barriers, semaphores, condition variables. */
class FlatSyncState
{
  public:
    /**
     * A lock operation a condition-variable op needs applied at the
     * lock's own home. Backends that partition variables across several
     * FlatSyncState instances (SynCron-flat: one per Master SE) pass a
     * forward list to apply(); cond_wait/signal/broadcast then emit the
     * release / re-acquire of the associated lock here instead of
     * resolving it in-place, and the backend routes each entry to the
     * instance owning @c lock (paying its message cost on the way).
     */
    struct LockOp
    {
        Addr lock = 0;
        CoreId core = kInvalidCore;
        sim::Gate *gate = nullptr; ///< waiter's gate for re-acquires
        bool acquire = false;      ///< false: release by @c core
    };

    /**
     * Applies one operation and returns the cores granted as a result
     * (possibly including the requester, e.g. an uncontended
     * lock_acquire).
     *
     * @param req     typed request descriptor
     * @param core    requesting core (system-wide id)
     * @param gate    requester's gate for acquire-type ops; nullptr for
     *                release-type ops (their gate opens at issue)
     * @param forward when non-null, cond ops emit their associated-lock
     *                manipulation here instead of applying it in-place
     */
    std::vector<SyncGrant> apply(const SyncRequest &req, CoreId core,
                                 sim::Gate *gate,
                                 std::vector<LockOp> *forward = nullptr);

    /** True when @p var has no owner, waiters, or residual state (a
     *  semaphore whose count differs from its initial resources). */
    bool idle(Addr var) const;

    /** Drops state for @p var (destroy_syncvar). */
    void destroy(Addr var) { vars_.erase(var); }

  private:
    struct CondWaiter
    {
        CoreId core;
        sim::Gate *gate;
        Addr lockAddr;
    };

    struct VarState
    {
        // Lock
        bool locked = false;
        CoreId owner = kInvalidCore;
        std::deque<SyncGrant> lockWaiters;
        // Barrier
        std::uint32_t barrierArrived = 0;
        std::vector<SyncGrant> barrierWaiters;
        // Semaphore: posts minus grants. The count is the initial
        // resources every sem_wait carries plus this, so a post that
        // arrives first loses nothing.
        std::int64_t semDelta = 0;
        std::deque<SyncGrant> semWaiters;
        // Condition variable
        std::deque<CondWaiter> condWaiters;

        bool idle() const;
    };

    VarState &state(Addr var) { return vars_[var]; }

    void lockAcquire(VarState &st, CoreId core, sim::Gate *gate,
                     std::vector<SyncGrant> &out);
    void lockRelease(Addr var, CoreId core, std::vector<SyncGrant> &out);

    std::unordered_map<Addr, VarState> vars_;
};

} // namespace syncron::sync

#endif // SYNCRON_SYNC_FLAT_STATE_HH
