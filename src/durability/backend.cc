#include "durability/backend.hh"

#include "common/log.hh"
#include "core/core.hh"
#include "system/machine.hh"

namespace syncron::durability {

PersistingBackend::PersistingBackend(
    std::unique_ptr<sync::SyncBackend> inner, Machine &machine)
    : inner_(std::move(inner)), machine_(machine)
{
    SYNCRON_ASSERT(inner_ != nullptr,
                   "PersistingBackend wrapping nothing");
}

void
PersistingBackend::request(core::Core &requester,
                           const sync::SyncRequest &req, sim::Gate *gate)
{
    if (req.releaseType()) {
        // req_async commits at issue; its WAL append rides completion.
        inner_->request(requester, req, gate);
        return;
    }

    // Write-ahead: the intent record reaches the PM durability domain
    // before the operation is admitted to the SE.
    ++pending_[req.var()];
    machine_.eq(requester.unit()).scheduleIn(
        machine_.config().pm.writeTicks, [this, &requester, req, gate] {
            auto it = pending_.find(req.var());
            SYNCRON_ASSERT(it != pending_.end() && it->second > 0,
                           "persist-delay accounting lost @" << req.var());
            if (--it->second == 0)
                pending_.erase(it);
            inner_->request(requester, req, gate);
        });
}

bool
PersistingBackend::idleVar(Addr var) const
{
    return pending_.count(var) == 0 && inner_->idleVar(var);
}

void
PersistingBackend::releaseVar(Addr var)
{
    inner_->releaseVar(var);
}

} // namespace syncron::durability
