#include "baselines/ideal.hh"

#include "core/core.hh"
#include "sync/registry.hh"

namespace syncron::baselines {

void
IdealBackend::request(core::Core &requester, const sync::SyncRequest &req,
                      sim::Gate *gate)
{
    const bool acquire = req.acquireType();
    // Opening a gate only schedules its waiter's resume, so nothing
    // re-enters apply() while the grants are walked.
    auto grants = state_.apply(req, requester.id(),
                               acquire ? gate : nullptr);
    if (!acquire)
        gate->open(0, 0);
    for (const sync::SyncGrant &g : grants)
        g.gate->open(0, 0);
}

SYNCRON_REGISTER_BACKEND("Ideal", [](Machine &m) {
    return std::make_unique<IdealBackend>(m);
});

} // namespace syncron::baselines
