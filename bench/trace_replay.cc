/**
 * @file
 * Trace-driven evaluation: capture → generate → write → mmap replay on
 * every backend.
 *
 * Without --trace-in, every trace the bench replays is written into one
 * fresh directory under the system temp directory, which is removed
 * again when the run ends, whether it passed or failed:
 *
 *   1. Capture. A small fig11-style data-structure run (Queue, the
 *      hot-lock structure) executes on SynCron (or --backend) with the
 *      trace capture hook enabled, as cell capture.run/<backend>, and
 *      writes capture.queue.trc; --trace-out=<path> keeps a copy.
 *   2. Generation. trace::ScenarioGenerator synthesizes every scenario
 *      family (Zipfian lock contention, bursty open-loop arrivals,
 *      phased barrier/lock mix, reader-heavy semaphore, replicated
 *      state machine) twice over: on the 4x15 machine of
 *      trace::benchScenarioSpecs (<family>.trc) and on a 2x4 machine at
 *      two sizes (<family>_s1.trc, <family>_s2.trc).
 *
 * With --trace-in=<path>, the file, or every *.trc in the directory, is
 * replayed instead, and nothing is captured or generated.
 *
 *   3. Replay. Every trace is validated through
 *      trace::MappedTraceReader and replayed through the typed api on
 *      SynCron, Central, and SynCron-flat as cell <trace>/<scheme>
 *      (<trace> is the file name without .trc; a CellSpec::Replay, so
 *      each file is read once for all three), with --analyze and
 *      --sim-shards carried over (capture always runs unsharded). Each
 *      replay must execute exactly its trace's per-OpKind operation
 *      mix; a miss is fatal (exit 2) and names the cell.
 *
 * Emits BENCH_trace_replay.json with --json. The ctest
 * golden_trace_replay pins its simulated output at 1 and 4 shards; CI
 * gates its host speed with tools/perf_trend.py.
 */

#include <stdlib.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "common/log.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "trace/corpus.hh"
#include "trace/format.hh"
#include "trace/mmap_reader.hh"
#include "trace/scenario.hh"

using namespace syncron;
using harness::fmt;
namespace fs = std::filesystem;

namespace {

/** Replay schemes, in table-column order. */
constexpr Scheme kReplaySchemes[] = {Scheme::SynCron, Scheme::Central,
                                     Scheme::SynCronFlat};

/** A fresh directory under the system temp directory, removed with
 *  everything in it when the run ends (also when it fails). */
class TempDir
{
  public:
    TempDir()
    {
        path_ = (fs::temp_directory_path() / "trace_replay_XXXXXX")
                    .string();
        if (::mkdtemp(path_.data()) == nullptr)
            SYNCRON_FATAL("cannot create trace directory " << path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Runs the Queue capture cell, which writes its trace to @p path. */
void
capture(harness::Bench &bench, const std::string &path)
{
    const harness::BenchOptions &opts = bench.opts();
    SystemConfig cfg = opts.makeConfig(Scheme::SynCron, 2, 4);
    cfg.tracePath = path;
    // Capture records one global op order, so it runs unsharded;
    // --sim-shards applies to the replay cells.
    cfg.simShards = 1;
    // --backend overrides the capture scheme like any other cell; label
    // the run with the backend that actually executed it.
    const std::string backend =
        opts.backend.empty() ? schemeName(cfg.scheme) : opts.backend;
    const harness::DsParams params =
        harness::dsDefaults(harness::DsKind::Queue, 0.05 * opts.scale);
    // "capture.run" (not "capture.queue") so the label can never collide
    // with the replay cells of the captured trace.
    bench.cell("capture.run/" + backend,
               {cfg, harness::CellSpec::Ds{harness::DsKind::Queue,
                                           params.initialSize,
                                           params.opsPerCore}});
    bench.run();

    const trace::MappedTraceReader captured(path);
    std::cout << "captured " << captured.recordCount() << " sync ops ("
              << captured.primitives().size()
              << " primitives) from a Queue run on " << backend;
    if (!opts.traceOut.empty()) {
        fs::copy_file(path, opts.traceOut,
                      fs::copy_options::overwrite_existing);
        std::cout << " -> " << opts.traceOut;
    }
    std::cout << "\n";
}

/** Writes every generated scenario trace into @p dir. */
void
generate(const std::string &dir, double scale)
{
    auto write = [&dir](const trace::ScenarioSpec &spec,
                        const std::string &suffix) {
        trace::writeTraceFile(trace::ScenarioGenerator(spec).generate(),
                              dir + "/"
                                  + trace::scenarioFamilyName(spec.family)
                                  + suffix + ".trc");
    };
    for (const trace::ScenarioSpec &spec :
         trace::benchScenarioSpecs(scale))
        write(spec, "");
    for (trace::ScenarioFamily family : trace::kAllScenarioFamilies) {
        for (unsigned step = 1; step <= 2; ++step) {
            trace::ScenarioSpec spec;
            spec.family = family;
            spec.numUnits = 2;
            spec.clientCoresPerUnit = 4;
            spec.opsPerCore =
                std::max(1u, static_cast<unsigned>(16.0 * step * scale));
            spec.seed = step;
            write(spec, "_s" + std::to_string(step));
        }
    }
}

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();

    // -- Stages 1 and 2: the traces to replay --------------------------
    std::optional<TempDir> dir;
    std::vector<trace::CorpusFile> files;
    if (opts.traceIn.empty()) {
        dir.emplace();
        capture(bench, dir->path() + "/capture.queue.trc");
        generate(dir->path(), opts.scale);
        files = trace::Corpus::open(dir->path()).files();
    } else if (trace::Corpus::isDirectory(opts.traceIn)) {
        files = trace::Corpus::open(opts.traceIn).files();
    } else {
        files.push_back(
            {opts.traceIn, fs::path(opts.traceIn).filename().string()});
    }

    // -- Stage 3: replay every trace on every backend ------------------
    // Each cell runs on the machine shape its trace dictates, with only
    // the CLI-wide knobs carried over.
    std::vector<std::string> names;
    std::vector<std::array<std::uint64_t, kNumSyncOpKinds>> wants;
    for (const trace::CorpusFile &file : files) {
        names.push_back(fs::path(file.name).stem().string());
        const trace::MappedTraceReader reader(file.path);
        wants.push_back(reader.validateAll());
        for (Scheme scheme : kReplaySchemes) {
            SystemConfig cfg = SystemConfig::make(
                scheme, reader.numUnits(), reader.clientCoresPerUnit());
            cfg.backendName = opts.backend;
            cfg.analyze = opts.analyze;
            cfg.simShards = opts.simShards;
            bench.cell(names.back() + "/" + schemeName(scheme),
                       {cfg, harness::CellSpec::Replay{file.path}});
        }
    }
    const auto results = bench.run();

    // Every replay must execute exactly the operation mix the mmap
    // validation walk counted.
    harness::TablePrinter table(
        "Trace replay: throughput [ops/ms] per backend",
        {"trace", "records", "SynCron", "Central", "SynCron-flat"});
    std::size_t i = 0;
    for (std::size_t f = 0; f < names.size(); ++f) {
        std::vector<std::string> row{names[f],
                                     std::to_string(results[i].ops)};
        for (Scheme scheme : kReplaySchemes) {
            const harness::RunOutput &out = results[i++];
            std::uint64_t records = 0;
            for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
                const std::uint64_t got = out.stats.syncLatency[k].count;
                records += wants[f][k];
                if (got != wants[f][k]) {
                    SYNCRON_FATAL(
                        "replay of '"
                        << names[f] << "' on " << schemeName(scheme)
                        << " performed " << got << " "
                        << sync::opKindName(static_cast<sync::OpKind>(k))
                        << " ops, trace has " << wants[f][k]);
                }
            }
            if (out.ops != records) {
                SYNCRON_FATAL("replay of '"
                              << names[f] << "' on " << schemeName(scheme)
                              << " executed " << out.ops << " of "
                              << records << " records");
            }
            row.push_back(fmt(out.opsPerMs(), 1));
        }
        table.addRow(std::move(row));
    }
    table.addNote("every replay reproduces its trace's per-OpKind "
                  "counts on every backend (checked)");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH("trace_replay", run)
