/**
 * @file
 * Offline analysis of captured sync-op traces: feeds a PR-4 trace file
 * through the same AnalysisEngine the live --analyze path uses, so the
 * lock-order analyzer and misuse linter run on any trace — captured
 * from a real run, synthesized by the scenario generator, or produced
 * elsewhere. (The lockset race checker is live-only: traces carry no
 * shadow-state accesses.) The tools/analyze_trace binary is a thin CLI
 * over analyzeTrace().
 *
 * traceShape() and traceEvent() are the one record -> OpEvent adapter;
 * durability::RecoveryEngine and harness::runCrashSweep drive a
 * SyncStateModel over WAL records through them too.
 */

#ifndef SYNCRON_ANALYSIS_TRACE_ANALYSIS_HH
#define SYNCRON_ANALYSIS_TRACE_ANALYSIS_HH

#include "analysis/report.hh"
#include "analysis/state_model.hh"
#include "trace/format.hh"

namespace syncron::analysis {

/** The machine shape @p trace was captured on. */
MachineShape traceShape(const trace::Trace &trace);

/**
 * The completion event of record @p r, numbered against @p trace's
 * primitive table (which supplies barrier arity and initial resources).
 */
OpEvent traceEvent(const trace::Trace &trace, const trace::TraceRecord &r);

/** Runs the trace-applicable analyses over @p trace. */
AnalysisReport analyzeTrace(const trace::Trace &trace);

} // namespace syncron::analysis

#endif // SYNCRON_ANALYSIS_TRACE_ANALYSIS_HH
