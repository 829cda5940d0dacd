#include "analysis/trace_analysis.hh"

#include "analysis/analyzers.hh"

namespace syncron::analysis {

MachineShape
traceShape(const trace::Trace &trace)
{
    return MachineShape{trace.numUnits, trace.clientCoresPerUnit};
}

OpEvent
traceEvent(const trace::Trace &trace, const trace::TraceRecord &r)
{
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
    return ev;
}

AnalysisReport
analyzeTrace(const trace::Trace &trace)
{
    AnalysisEngine engine(traceShape(trace));

    // Records are stored in capture order: per-core program order
    // inside one global hook-fire order, the stream contract the live
    // engine sees too. Issue events are not replayed: every trace
    // record is a completed op, so the pending-op-leak check has
    // nothing to say offline.
    for (const trace::TraceRecord &r : trace.records)
        engine.onComplete(traceEvent(trace, r));
    return engine.finish();
}

} // namespace syncron::analysis
