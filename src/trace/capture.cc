#include "trace/capture.hh"

#include "common/log.hh"
#include "mem/allocator.hh"

namespace syncron::trace {

TraceCapture::TraceCapture(const SystemConfig &cfg) : cfg_(cfg)
{
    trace_.numUnits = cfg.numUnits;
    trace_.clientCoresPerUnit = cfg.clientCoresPerUnit;
}

std::uint32_t
TraceCapture::primId(Addr addr, PrimKind kind)
{
    if (const std::uint32_t *id = addrToPrim_.find(addr);
        id != nullptr && trace_.primitives[*id].kind == kind) {
        return *id;
    }
    // First sight, or defensively a kind flip: generation boundaries
    // normally arrive through onDestroy() (which erases the mapping),
    // but a capture that missed the destroy must still split rather
    // than conflate two unrelated primitives.
    const auto id = static_cast<std::uint32_t>(trace_.primitives.size());
    addrToPrim_[addr] = id;
    TracePrimitive p;
    p.kind = kind;
    p.home = mem::unitOfAddr(addr);
    trace_.primitives.push_back(p);
    return id;
}

void
TraceCapture::onComplete(CoreId core, const sync::SyncRequest &req,
                         Tick issued, Tick completed)
{
    TraceRecord r;
    r.issued = issued;
    r.completed = completed;
    r.kind = req.kind();

    SYNCRON_ASSERT(core % cfg_.coresPerUnit < cfg_.clientCoresPerUnit,
                   "sync op from non-client core " << core);
    r.core = cfg_.denseClientIndex(core);

    const PrimKind pk = primKindOf(req.kind());
    r.prim = primId(req.var(), pk);

    // Primitive parameters ride on the requests that carry them.
    TracePrimitive &p = trace_.primitives[r.prim];
    switch (req.kind()) {
      case sync::OpKind::BarrierWaitWithinUnit:
        p.param = req.participants();
        p.scope = sync::BarrierScope::WithinUnit;
        break;
      case sync::OpKind::BarrierWaitAcrossUnits:
        p.param = req.participants();
        p.scope = sync::BarrierScope::AcrossUnits;
        break;
      case sync::OpKind::SemWait:
        p.param = req.resources();
        break;
      case sync::OpKind::CondWait:
        r.assocPrim = primId(req.condLock(), PrimKind::Lock);
        break;
      default:
        break;
    }

    trace_.records.push_back(r);
}

} // namespace syncron::trace
