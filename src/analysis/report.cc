#include "analysis/report.hh"

#include <ostream>

#include "harness/json.hh"

namespace syncron::analysis {

const char *
findingKindName(FindingKind kind)
{
    switch (kind) {
      case FindingKind::EmptyLocksetRace: return "empty-lockset-race";
      case FindingKind::LockOrderCycle: return "lock-order-cycle";
      case FindingKind::ReleaseWithoutAcquire:
        return "release-without-acquire";
      case FindingKind::DoubleRelease: return "double-release";
      case FindingKind::BarrierArityMismatch:
        return "barrier-arity-mismatch";
      case FindingKind::SemaphoreUnderflow: return "semaphore-underflow";
      case FindingKind::PendingOpLeak: return "pending-op-leak";
      case FindingKind::LockHeldAtTeardown: return "lock-held-at-teardown";
      case FindingKind::StaleGenerationUse:
        return "stale-generation-use";
      case FindingKind::DoubleGrant: return "double-grant";
      case FindingKind::BarrierNotConserved:
        return "barrier-not-conserved";
    }
    return "?";
}

void
AnalysisReport::print(std::ostream &os) const
{
    if (clean()) {
        os << "analysis: clean (no findings)\n";
        return;
    }
    os << "analysis: " << findings.size() << " finding(s)\n";
    for (const Finding &f : findings) {
        os << "  [" << findingKindName(f.kind) << "] " << f.message
           << "\n    at core ";
        if (f.core == kNoCore)
            os << "<none>";
        else
            os << f.core;
        os << ", prim#" << f.prim << ", tick " << f.tick << "\n";
        for (const WitnessStep &w : f.witness) {
            os << "    witness: core ";
            if (w.core == kNoCore)
                os << "<none>";
            else
                os << w.core;
            os << ", prim#" << w.prim << ", tick " << w.tick << ": "
               << w.note << "\n";
        }
    }
}

void
AnalysisReport::writeJson(std::ostream &os) const
{
    harness::JsonWriter jw(os);
    jw.beginObject();
    jw.field("clean", clean());
    jw.key("findings").beginArray();
    for (const Finding &f : findings) {
        jw.beginObject();
        jw.field("kind", findingKindName(f.kind));
        jw.field("message", f.message);
        if (f.core != kNoCore)
            jw.field("core", f.core);
        jw.field("prim", f.prim);
        jw.field("tick", static_cast<std::uint64_t>(f.tick));
        jw.key("witness").beginArray();
        for (const WitnessStep &w : f.witness) {
            jw.beginObject();
            if (w.core != kNoCore)
                jw.field("core", w.core);
            jw.field("prim", w.prim);
            jw.field("tick", static_cast<std::uint64_t>(w.tick));
            jw.field("note", w.note);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
}

} // namespace syncron::analysis
