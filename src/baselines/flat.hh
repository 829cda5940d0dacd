/**
 * @file
 * SynCron's flat variant (paper Section 6.7.1): every core sends its
 * synchronization requests directly to the Master SE of the variable,
 * with no local-SE level. The station microarchitecture is identical to
 * SynCron's SE (SPU service time, ST buffering), so the comparison
 * isolates exactly the hierarchy: under high contention and/or slow
 * inter-unit links, flat floods the serial links with per-core messages
 * where hierarchical SynCron sends one aggregated message per unit.
 */

#ifndef SYNCRON_BASELINES_FLAT_HH
#define SYNCRON_BASELINES_FLAT_HH

#include <vector>

#include "sync/backend.hh"
#include "sync/flat_state.hh"
#include "system/machine.hh"

namespace syncron::baselines {

/** Non-hierarchical SynCron: direct core -> Master SE messaging. */
class FlatSynCronBackend : public sync::SyncBackend
{
  public:
    explicit FlatSynCronBackend(Machine &machine);

    void request(core::Core &requester, const sync::SyncRequest &req,
                 sim::Gate *gate) override;

    bool idleVar(Addr var) const override;

    void releaseVar(Addr var) override;

    const char *name() const override { return "SynCron-flat"; }

  private:
    void process(UnitId se, const sync::SyncRequest &req, CoreId core,
                 sim::Gate *gate);

    Machine &machine_;
    /// Per-master-unit tracking state: a variable's state lives at its
    /// Master SE and is only touched from that unit's shard.
    std::vector<sync::FlatSyncState> state_;
    std::vector<Tick> busyUntil_; ///< per-unit SE SPU
    /// Requests issued but not yet applied at their Master SE.
    sync::PendingOps pending_;
};

} // namespace syncron::baselines

#endif // SYNCRON_BASELINES_FLAT_HH
