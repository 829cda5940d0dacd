#include "baselines/flat.hh"

#include <algorithm>

#include "common/log.hh"
#include "core/core.hh"
#include "mem/allocator.hh"
#include "sync/registry.hh"
#include "sync/message.hh"

namespace syncron::baselines {

FlatSynCronBackend::FlatSynCronBackend(Machine &machine)
    : machine_(machine), state_(machine.config().numUnits),
      busyUntil_(machine.config().numUnits, 0)
{}

bool
FlatSynCronBackend::idleVar(Addr var) const
{
    if (pending_.any(var))
        return false;
    // Condition variables are homed at their lock's master, not their
    // own, so check every unit's state rather than unitOfAddr(var)'s.
    for (const sync::FlatSyncState &s : state_)
        if (!s.idle(var))
            return false;
    return true;
}

void
FlatSynCronBackend::releaseVar(Addr var)
{
    for (sync::FlatSyncState &s : state_)
        s.destroy(var);
}

void
FlatSynCronBackend::request(core::Core &requester,
                            const sync::SyncRequest &req, sim::Gate *gate)
{
    const bool acquire = req.acquireType();
    if (!acquire)
        gate->open(0, requester.cyclePeriod());

    const UnitId master = mem::unitOfAddr(req.var());
    const UnitId from = requester.unit();
    if (from == master)
        ++machine_.stats().syncLocalMsgs;
    else
        ++machine_.stats().syncGlobalMsgs;

    const CoreId core = requester.id();
    sim::Gate *acquireGate = acquire ? gate : nullptr;
    pending_.inc(req.var());
    machine_.postMessage(machine_.eq(from).now(), from, master,
                         sync::kSyncReqBits,
                         [this, master, req, core, acquireGate] {
                             process(master, req, core, acquireGate);
                         });
}

void
FlatSynCronBackend::process(UnitId se, const sync::SyncRequest &req,
                            CoreId core, sim::Gate *gate)
{
    const SystemConfig &cfg = machine_.config();
    const Tick start = std::max(machine_.eq(se).now(), busyUntil_[se]);
    // Same SPU cost as hierarchical SynCron: the variable is buffered
    // directly in the Master SE's ST.
    const Tick done = start
                      + static_cast<Tick>(cfg.seServiceCycles)
                            * cfg.seCyclePeriod;
    busyUntil_[se] = done;

    machine_.eq(se).schedule(done, [this, se, req, core, gate] {
        const Tick when = machine_.eq(se).now();
        // A cond op's associated-lock manipulation is emitted here and
        // forwarded below to the LOCK's Master SE: the condition and
        // its lock may be homed at different units. Forwards and grants
        // both leave through postMessage(), so nothing re-enters
        // apply() while the grants are walked.
        std::vector<sync::FlatSyncState::LockOp> fwd;
        auto grants = state_[se].apply(req, core, gate, &fwd);
        pending_.dec(req.var());
        for (const sync::FlatSyncState::LockOp &op : fwd) {
            const UnitId lockSe = mem::unitOfAddr(op.lock);
            const sync::SyncRequest lockReq =
                sync::SyncRequest::fromMessageInfo(
                    op.acquire ? sync::OpKind::LockAcquire
                               : sync::OpKind::LockRelease,
                    op.lock, 0);
            SystemStats &st = machine_.stats();
            if (lockSe == se)
                ++st.syncLocalMsgs;
            else
                ++st.syncGlobalMsgs;
            pending_.inc(op.lock);
            const CoreId lockCore = op.core;
            sim::Gate *lockGate = op.gate;
            machine_.postMessage(when, se, lockSe, sync::kSyncReqBits,
                                 [this, lockSe, lockReq, lockCore,
                                  lockGate] {
                                     process(lockSe, lockReq, lockCore,
                                             lockGate);
                                 });
        }
        for (const sync::SyncGrant &g : grants) {
            const UnitId unit = g.core / machine_.config().coresPerUnit;
            SystemStats &st = machine_.stats();
            if (unit == se)
                ++st.syncLocalMsgs;
            else
                ++st.syncGlobalMsgs;
            SYNCRON_ASSERT(g.gate != nullptr, "grant without gate");
            // Opens the requester's gate on its own shard at the
            // response's arrival tick.
            sim::Gate *grantGate = g.gate;
            machine_.postMessage(when, se, unit, sync::kSyncRespBits,
                                 [grantGate] { grantGate->open(0, 0); });
        }
    });
}

SYNCRON_REGISTER_BACKEND_SHARDABLE("SynCron-flat", [](Machine &m) {
    return std::make_unique<FlatSynCronBackend>(m);
});

} // namespace syncron::baselines
