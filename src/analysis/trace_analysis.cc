#include "analysis/trace_analysis.hh"

#include "analysis/analyzers.hh"

namespace syncron::analysis {

AnalysisReport
analyzeTrace(const trace::Trace &trace)
{
    AnalysisEngine engine(
        MachineShape{trace.numUnits, trace.clientCoresPerUnit});

    // Records are stored in capture order: per-core program order
    // inside one global hook-fire order, the stream contract the live
    // engine sees too. Issue events are not replayed: every trace
    // record is a completed op, so the pending-op-leak check has
    // nothing to say offline.
    for (const trace::TraceRecord &r : trace.records) {
        OpEvent ev;
        ev.core = r.core;
        ev.kind = r.kind;
        ev.prim = r.prim;
        ev.assoc = r.assocPrim;
        ev.issued = r.issued;
        ev.completed = r.completed;
        if (r.prim < trace.primitives.size()) {
            const trace::TracePrimitive &p = trace.primitives[r.prim];
            ev.participants = p.param;
            ev.resources = p.param;
        }
        engine.onComplete(ev);
    }
    return engine.finish();
}

} // namespace syncron::analysis
