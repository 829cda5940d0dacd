/**
 * @file
 * Flat (non-hierarchical) semantic state machine for all four
 * synchronization primitives.
 *
 * This is the functional core shared by the Ideal backend (zero cost),
 * the Central baseline (one software server for the whole system), the
 * SynCron-flat ablation (one Master SE per variable, no local SEs) and
 * the engine's MiSAR overflow server. It tracks owners/waiters/counts
 * per variable and reports which waiting cores become runnable after
 * each operation; the calling backend attaches its own timing and
 * message costs.
 *
 * It is also the reference model against which the hierarchical SynCron
 * protocol is property-tested (same grants must eventually be produced).
 *
 * Every applied operation goes through here, so the per-op path
 * allocates nothing once a run reaches its working set: variables are
 * found through a common::AddrMap index into recycled slots, and
 * apply() hands back a view of one grant buffer the instance reuses.
 */

#ifndef SYNCRON_SYNC_FLAT_STATE_HH
#define SYNCRON_SYNC_FLAT_STATE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/addr_map.hh"
#include "common/log.hh"
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
 * Counted up where a request is sent and down where its server applies
 * it; every shard runs on one thread, so no lock guards the counts.
 */
class PendingOps
{
  public:
    void inc(Addr var) { ++counts_[var]; }

    void
    dec(Addr var)
    {
        std::uint32_t *n = counts_.find(var);
        if (n != nullptr && --*n == 0)
            counts_.erase(var);
    }

    /** True while some request on @p var is in flight. */
    bool any(Addr var) const { return counts_.contains(var); }

  private:
    common::AddrMap<std::uint32_t> counts_;
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
     * The grants of the latest apply(): a view of the grant buffer the
     * instance reuses. It stays valid until the next apply() on the
     * same instance, and reading it after that panics. So a caller
     * must not re-enter apply() on one instance while it walks that
     * instance's grants; the backends forward any follow-up operation
     * through Machine::postMessage(), which runs it later.
     */
    class Grants
    {
      public:
        struct iterator
        {
            const Grants *view;
            std::size_t i;

            const SyncGrant &operator*() const { return (*view)[i]; }
            iterator &
            operator++()
            {
                ++i;
                return *this;
            }
            bool operator==(const iterator &) const = default;
        };

        iterator begin() const { return {this, 0}; }
        iterator end() const { return {this, size()}; }
        std::size_t size() const { return live().size(); }
        bool empty() const { return size() == 0; }
        const SyncGrant &
        operator[](std::size_t i) const
        {
            return live()[i];
        }

      private:
        friend class FlatSyncState;

        explicit Grants(const FlatSyncState &owner)
            : owner_(&owner), epoch_(owner.applies_)
        {}

        const std::vector<SyncGrant> &
        live() const
        {
            SYNCRON_ASSERT(owner_->applies_ == epoch_,
                           "grants read after a later apply() on the "
                           "same FlatSyncState");
            return owner_->grants_;
        }

        const FlatSyncState *owner_;
        std::uint64_t epoch_;
    };

    /**
     * Applies one operation and returns the cores granted as a result
     * (possibly including the requester, e.g. an uncontended
     * lock_acquire); see Grants for how long the result stays valid.
     *
     * @param req     typed request descriptor
     * @param core    requesting core (system-wide id)
     * @param gate    requester's gate for acquire-type ops; nullptr for
     *                release-type ops (their gate opens at issue)
     * @param forward when non-null, cond ops emit their associated-lock
     *                manipulation here instead of applying it in-place
     */
    Grants apply(const SyncRequest &req, CoreId core, sim::Gate *gate,
                 std::vector<LockOp> *forward = nullptr);

    /** True when @p var has no owner, waiters, or residual state (a
     *  semaphore whose count differs from its initial resources). */
    bool idle(Addr var) const;

    /**
     * Drops state for @p var (destroy_syncvar). Its slot is recycled,
     * so the next use of the line starts from idle state.
     */
    void destroy(Addr var);

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
        /** Back to idle, keeping the containers' storage. */
        void reset();
    };

    /** State of @p var, taking a recycled (or new) slot on first use.
     *  Slots never move, so the reference survives later calls. */
    VarState &state(Addr var);

    void lockAcquire(VarState &st, CoreId core, sim::Gate *gate);
    void lockRelease(VarState &st, Addr var, CoreId core);

    common::AddrMap<std::uint32_t> index_; ///< var -> slot in vars_
    std::deque<VarState> vars_;            ///< slots; addresses are stable
    std::vector<std::uint32_t> freeSlots_; ///< destroyed, reset slots
    std::vector<SyncGrant> grants_;        ///< the latest apply()'s grants
    std::uint64_t applies_ = 0;            ///< apply() calls so far
};

} // namespace syncron::sync

#endif // SYNCRON_SYNC_FLAT_STATE_HH
