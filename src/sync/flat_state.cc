#include "sync/flat_state.hh"

#include "common/log.hh"

namespace syncron::sync {

bool
FlatSyncState::VarState::idle() const
{
    return !locked && lockWaiters.empty() && barrierArrived == 0
           && barrierWaiters.empty() && semDelta == 0
           && semWaiters.empty() && condWaiters.empty();
}

void
FlatSyncState::VarState::reset()
{
    locked = false;
    owner = kInvalidCore;
    lockWaiters.clear();
    barrierArrived = 0;
    barrierWaiters.clear();
    semDelta = 0;
    semWaiters.clear();
    condWaiters.clear();
}

FlatSyncState::VarState &
FlatSyncState::state(Addr var)
{
    if (const std::uint32_t *slot = index_.find(var))
        return vars_[*slot];
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(vars_.size());
        vars_.emplace_back();
    }
    index_[var] = slot;
    return vars_[slot];
}

void
FlatSyncState::destroy(Addr var)
{
    const std::uint32_t *slot = index_.find(var);
    if (slot == nullptr)
        return;
    vars_[*slot].reset();
    freeSlots_.push_back(*slot);
    index_.erase(var);
}

void
FlatSyncState::lockAcquire(VarState &st, CoreId core, sim::Gate *gate)
{
    if (!st.locked) {
        st.locked = true;
        st.owner = core;
        grants_.push_back(SyncGrant{core, gate});
    } else {
        st.lockWaiters.push_back(SyncGrant{core, gate});
    }
}

void
FlatSyncState::lockRelease(VarState &st, Addr var, CoreId core)
{
    SYNCRON_ASSERT(st.locked, "release of unlocked lock @" << var
                                  << " by core " << core);
    SYNCRON_ASSERT(st.owner == core, "release by non-owner core "
                                         << core << " (owner "
                                         << st.owner << ")");
    if (!st.lockWaiters.empty()) {
        SyncGrant next = st.lockWaiters.front();
        st.lockWaiters.pop_front();
        st.owner = next.core;
        grants_.push_back(next);
    } else {
        st.locked = false;
        st.owner = kInvalidCore;
    }
}

FlatSyncState::Grants
FlatSyncState::apply(const SyncRequest &req, CoreId core, sim::Gate *gate,
                     std::vector<LockOp> *forward)
{
    ++applies_;
    grants_.clear();
    const Addr var = req.var();
    VarState &st = state(var);

    switch (req.kind()) {
      case OpKind::LockAcquire:
        lockAcquire(st, core, gate);
        break;

      case OpKind::LockRelease:
        lockRelease(st, var, core);
        break;

      case OpKind::BarrierWaitWithinUnit:
      case OpKind::BarrierWaitAcrossUnits: {
        ++st.barrierArrived;
        st.barrierWaiters.push_back(SyncGrant{core, gate});
        if (st.barrierArrived >= req.participants()) {
            grants_.swap(st.barrierWaiters);
            st.barrierArrived = 0; // barrier is reusable
        }
        break;
      }

      case OpKind::SemWait: {
        if (static_cast<std::int64_t>(req.resources()) + st.semDelta > 0) {
            --st.semDelta;
            grants_.push_back(SyncGrant{core, gate});
        } else {
            st.semWaiters.push_back(SyncGrant{core, gate});
        }
        break;
      }

      case OpKind::SemPost: {
        if (!st.semWaiters.empty()) {
            SyncGrant next = st.semWaiters.front();
            st.semWaiters.pop_front();
            grants_.push_back(next);
        } else {
            ++st.semDelta;
        }
        break;
      }

      case OpKind::CondWait: {
        const Addr lockAddr = req.condLock();
        // Atomically: queue on the condition, then release the lock.
        st.condWaiters.push_back(CondWaiter{core, gate, lockAddr});
        if (forward != nullptr)
            forward->push_back(LockOp{lockAddr, core, nullptr, false});
        else
            lockRelease(state(lockAddr), lockAddr, core);
        break;
      }

      case OpKind::CondSignal: {
        if (!st.condWaiters.empty()) {
            CondWaiter w = st.condWaiters.front();
            st.condWaiters.pop_front();
            // The woken core must re-acquire the associated lock before
            // its cond_wait returns.
            if (forward != nullptr)
                forward->push_back(LockOp{w.lockAddr, w.core, w.gate,
                                          true});
            else
                lockAcquire(state(w.lockAddr), w.core, w.gate);
        }
        break;
      }

      case OpKind::CondBroadcast: {
        // lockAcquire() touches only lock fields, so the waiter list
        // stays put while it is walked.
        for (const CondWaiter &w : st.condWaiters) {
            if (forward != nullptr)
                forward->push_back(LockOp{w.lockAddr, w.core, w.gate,
                                          true});
            else
                lockAcquire(state(w.lockAddr), w.core, w.gate);
        }
        st.condWaiters.clear();
        break;
      }
    }

    return Grants(*this);
}

bool
FlatSyncState::idle(Addr var) const
{
    const std::uint32_t *slot = index_.find(var);
    return slot == nullptr || vars_[*slot].idle();
}

} // namespace syncron::sync
