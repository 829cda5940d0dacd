/**
 * @file
 * Trace-driven evaluation: capture → generate → cross-backend replay.
 *
 * Three stages, all run as labeled grid cells of harness::benchMain
 * like every other bench:
 *
 *   1. Capture. A small fig11-style data-structure run (Queue, the
 *      hot-lock structure) executes on SynCron with the trace capture
 *      hook enabled and writes its operation stream to --trace-out
 *      (default trace_replay_capture.trc). With --trace-in=<path>, an
 *      existing trace file is loaded instead and no capture runs.
 *   2. Generation. trace::ScenarioGenerator synthesizes the scenario
 *      families (Zipfian lock contention, bursty open-loop arrivals,
 *      phased barrier/lock mix, reader-heavy semaphore) — contention
 *      regimes no Table 6 structure exercises.
 *   3. Replay. Every trace replays through the typed api on SynCron,
 *      Central, and SynCron-flat, with --analyze and --sim-shards
 *      carried over (capture always runs unsharded); the capture trace
 *      is additionally checked to reproduce the original per-OpKind
 *      operation counts exactly on the capturing backend (exit non-zero
 *      otherwise).
 *
 * Emits BENCH_trace_replay.json with --json; CI smokes a small
 * generate+replay grid and gates it with tools/perf_trend.py.
 */

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/scenario.hh"

using namespace syncron;
using harness::fmt;

namespace {

/** Replay schemes, in table-column order. */
constexpr Scheme kReplaySchemes[] = {Scheme::SynCron, Scheme::Central,
                                     Scheme::SynCronFlat};

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const double scale = opts.scale;

    // -- Stage 1: capture (or load) a real run's stream ----------------
    std::vector<std::pair<std::string, trace::Trace>> traces;
    if (!opts.traceIn.empty()) {
        traces.emplace_back("file", trace::readTraceFile(opts.traceIn));
    } else {
        const std::string capPath = opts.traceOut.empty()
                                        ? "trace_replay_capture.trc"
                                        : opts.traceOut;
        SystemConfig capCfg = opts.makeConfig(Scheme::SynCron, 2, 4);
        capCfg.tracePath = capPath;
        // Capture records one global op order, so it runs unsharded;
        // --sim-shards applies to the replay cells below.
        capCfg.simShards = 1;
        // --backend overrides the capture scheme like any other cell;
        // label the run with the backend that actually executed it.
        const std::string capBackend = opts.backend.empty()
                                           ? schemeName(capCfg.scheme)
                                           : opts.backend;
        const harness::DsParams params =
            harness::dsDefaults(harness::DsKind::Queue, 0.05 * scale);
        // "capture.run" (not "capture.queue") so the label can never
        // collide with the replay cells of the same trace below.
        bench.cell("capture.run/" + capBackend, [capCfg, params] {
            return harness::runDataStructure(
                capCfg, harness::DsKind::Queue, params.initialSize,
                params.opsPerCore);
        });
        bench.run();

        trace::Trace captured = trace::readTraceFile(capPath);
        std::cout << "captured " << captured.records.size()
                  << " sync ops (" << captured.primitives.size()
                  << " primitives) from a Queue run on " << capBackend
                  << " -> " << capPath << "\n";
        traces.emplace_back("capture.queue", std::move(captured));
    }

    // -- Stage 2: synthesize the scenario families ---------------------
    for (const trace::ScenarioSpec &spec :
         trace::benchScenarioSpecs(scale)) {
        traces.emplace_back(trace::scenarioFamilyName(spec.family),
                            trace::ScenarioGenerator(spec).generate());
    }

    // -- Stage 3: replay everything on every backend -------------------
    for (const auto &[name, trc] : traces) {
        for (Scheme scheme : kReplaySchemes) {
            const trace::Trace *t = &trc;
            bench.cell(name + "/" + schemeName(scheme),
                       [&opts, t, scheme] {
                           SystemConfig cfg =
                               trace::replayConfig(*t, scheme);
                           cfg.backendName = opts.backend;
                           cfg.analyze = opts.analyze;
                           cfg.simShards = opts.simShards;
                           return harness::runTrace(cfg, *t);
                       });
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Trace replay: throughput [ops/ms] per backend",
        {"trace", "records", "SynCron", "Central", "SynCron-flat"});
    std::size_t i = 0;
    for (const auto &[name, trc] : traces) {
        std::vector<std::string> row{
            name, std::to_string(trc.records.size())};
        for (Scheme scheme : kReplaySchemes) {
            const harness::RunOutput &out = results[i++];
            row.push_back(fmt(out.opsPerMs(), 1));

            if (out.ops != trc.records.size()) {
                SYNCRON_FATAL("replay of '"
                              << name << "' on " << schemeName(scheme)
                              << " executed " << out.ops << " of "
                              << trc.records.size() << " records");
            }
            // Any correct backend executes exactly the trace's
            // operation mix — the round-trip guarantee.
            const auto want = trc.opCounts();
            for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
                const std::uint64_t got =
                    out.stats.syncLatency[k].count;
                if (got != want[k]) {
                    SYNCRON_FATAL(
                        "replay of '"
                        << name << "' on " << schemeName(scheme)
                        << " performed " << got << " "
                        << sync::opKindName(
                               static_cast<sync::OpKind>(k))
                        << " ops, trace has " << want[k]);
                }
            }
        }
        table.addRow(std::move(row));
    }
    table.addNote("every replay reproduces its trace's per-OpKind "
                  "counts on every backend (checked)");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("trace_replay", run)
