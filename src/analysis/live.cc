#include "analysis/live.hh"

#include "common/log.hh"

namespace syncron::analysis {

std::uint64_t
LiveAnalyzer::idOf(Addr addr)
{
    if (const std::uint64_t *id = ids_.find(addr))
        return *id;
    ids_[addr] = nextId_;
    return nextId_++;
}

OpEvent
LiveAnalyzer::toEvent(CoreId core, const sync::SyncRequest &req,
                      Tick issued, Tick completed)
{
    OpEvent ev;
    ev.core = cfg_.denseClientIndex(core);
    ev.kind = req.kind();
    ev.prim = idOf(req.var());
    ev.issued = issued;
    ev.completed = completed;
    switch (req.kind()) {
      case sync::OpKind::BarrierWaitWithinUnit:
      case sync::OpKind::BarrierWaitAcrossUnits:
        ev.participants = req.participants();
        break;
      case sync::OpKind::SemWait:
        ev.resources = req.resources();
        break;
      case sync::OpKind::CondWait:
        ev.assoc = idOf(req.condLock());
        break;
      default:
        break;
    }
    return ev;
}

void
LiveAnalyzer::onIssue(CoreId core, const sync::SyncRequest &req,
                      Tick issued)
{
    engine_.onIssue(toEvent(core, req, issued, issued));
}

void
LiveAnalyzer::onComplete(CoreId core, const sync::SyncRequest &req,
                         Tick issued, Tick completed)
{
    engine_.onComplete(toEvent(core, req, issued, completed));
}

void
LiveAnalyzer::onAccess(CoreId core, Addr addr, bool isWrite, Tick tick)
{
    engine_.onAccess(cfg_.denseClientIndex(core), addr, isWrite, tick);
}

void
LiveAnalyzer::onDestroy(Addr addr)
{
    // Retire the identity: a recycled line is a fresh primitive.
    ids_.erase(addr);
}

const AnalysisReport &
LiveAnalyzer::finish()
{
    SYNCRON_ASSERT(!finished_, "LiveAnalyzer::finish() called twice");
    finished_ = true;
    report_ = engine_.finish();
    return report_;
}

} // namespace syncron::analysis
