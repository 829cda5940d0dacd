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
FlatSyncState::lockAcquire(VarState &st, CoreId core, sim::Gate *gate,
                           std::vector<SyncGrant> &out)
{
    if (!st.locked) {
        st.locked = true;
        st.owner = core;
        out.push_back(SyncGrant{core, gate});
    } else {
        st.lockWaiters.push_back(SyncGrant{core, gate});
    }
}

void
FlatSyncState::lockRelease(Addr var, CoreId core,
                           std::vector<SyncGrant> &out)
{
    VarState &st = state(var);
    SYNCRON_ASSERT(st.locked, "release of unlocked lock @" << var
                                  << " by core " << core);
    SYNCRON_ASSERT(st.owner == core, "release by non-owner core "
                                         << core << " (owner "
                                         << st.owner << ")");
    if (!st.lockWaiters.empty()) {
        SyncGrant next = st.lockWaiters.front();
        st.lockWaiters.pop_front();
        st.owner = next.core;
        out.push_back(next);
    } else {
        st.locked = false;
        st.owner = kInvalidCore;
    }
}

std::vector<SyncGrant>
FlatSyncState::apply(const SyncRequest &req, CoreId core, sim::Gate *gate,
                     std::vector<LockOp> *forward)
{
    std::vector<SyncGrant> out;
    const Addr var = req.var();
    VarState &st = state(var);

    switch (req.kind()) {
      case OpKind::LockAcquire:
        lockAcquire(st, core, gate, out);
        break;

      case OpKind::LockRelease:
        lockRelease(var, core, out);
        break;

      case OpKind::BarrierWaitWithinUnit:
      case OpKind::BarrierWaitAcrossUnits: {
        ++st.barrierArrived;
        st.barrierWaiters.push_back(SyncGrant{core, gate});
        if (st.barrierArrived >= req.participants()) {
            out = std::move(st.barrierWaiters);
            st.barrierWaiters.clear();
            st.barrierArrived = 0; // barrier is reusable
        }
        break;
      }

      case OpKind::SemWait: {
        if (static_cast<std::int64_t>(req.resources()) + st.semDelta > 0) {
            --st.semDelta;
            out.push_back(SyncGrant{core, gate});
        } else {
            st.semWaiters.push_back(SyncGrant{core, gate});
        }
        break;
      }

      case OpKind::SemPost: {
        if (!st.semWaiters.empty()) {
            SyncGrant next = st.semWaiters.front();
            st.semWaiters.pop_front();
            out.push_back(next);
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
            lockRelease(lockAddr, core, out);
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
                lockAcquire(state(w.lockAddr), w.core, w.gate, out);
        }
        break;
      }

      case OpKind::CondBroadcast: {
        std::deque<CondWaiter> waiters = std::move(st.condWaiters);
        st.condWaiters.clear();
        for (const CondWaiter &w : waiters) {
            if (forward != nullptr)
                forward->push_back(LockOp{w.lockAddr, w.core, w.gate,
                                          true});
            else
                lockAcquire(state(w.lockAddr), w.core, w.gate, out);
        }
        break;
      }
    }

    return out;
}

bool
FlatSyncState::idle(Addr var) const
{
    auto it = vars_.find(var);
    return it == vars_.end() || it->second.idle();
}

} // namespace syncron::sync
