/**
 * @file
 * Corpus replay: zero-copy scan + cross-backend replay of a directory
 * of traces.
 *
 * Stages:
 *
 *   1. Corpus. With --trace-corpus=<dir>, the existing directory is
 *      used as-is. Otherwise the bench generates its own: every
 *      scenario family (trace::kAllScenarioFamilies) at two scales —
 *      ten traces — written into a fresh temporary directory that is
 *      removed again when the run ends, whether it passed or failed.
 *   2. Zero-copy scan. Every trace is mmap-read through
 *      trace::MappedTraceReader and scanned record-by-record; the
 *      steady-state record loop is asserted allocation-free with a
 *      counting global operator new (the zero-copy contract: views
 *      into the mapping, no per-record heap traffic).
 *   3. Replay. One grid cell per (backend, trace) replays the whole
 *      corpus on SynCron, Central, and SynCron-flat; every replay must
 *      reproduce its trace's per-OpKind operation counts exactly
 *      (fatal otherwise, naming the cell).
 *
 * Emits BENCH_trace_corpus.json with --json; CI smokes a small corpus
 * and gates host-side scan/replay speed with tools/perf_trend.py.
 */

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <new>
#include <string>
#include <system_error>
#include <vector>

#include "common/log.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "trace/corpus.hh"
#include "trace/format.hh"
#include "trace/mmap_reader.hh"
#include "trace/replay.hh"
#include "trace/scenario.hh"

// -- Counting allocator ------------------------------------------------
// Counts every global allocation in this binary; the mmap scan stage
// asserts the delta across each record loop is zero. The full
// replacement set (throwing, nothrow, array, sized) keeps one
// malloc/free pool, which AddressSanitizer requires.
//
// GCC cannot see that this operator new (malloc) pairs with this
// operator delete (free) and warns at every inlined call site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
} // namespace

void *
operator new(std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace syncron;
using harness::fmt;

namespace {

/** Replay schemes, in table-column order. */
constexpr Scheme kReplaySchemes[] = {Scheme::SynCron, Scheme::Central,
                                     Scheme::SynCronFlat};

/** Removes the directory it names, files and all, when the run ends
 *  (also when it fails). */
struct RemoveOnExit
{
    std::string dir;

    RemoveOnExit() = default;
    RemoveOnExit(const RemoveOnExit &) = delete;
    RemoveOnExit &operator=(const RemoveOnExit &) = delete;
    ~RemoveOnExit()
    {
        std::error_code ec;
        if (!dir.empty())
            std::filesystem::remove_all(dir, ec);
    }
};

/** Generates the default corpus: every family at two scales, in a
 *  fresh directory that @p cleanup removes. */
std::string
generateCorpus(double scale, std::uint64_t seed, RemoveOnExit &cleanup)
{
    char tmpl[] = "trace_corpus_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr)
        SYNCRON_FATAL("cannot create corpus directory " << tmpl);
    const std::string dir = cleanup.dir = tmpl;

    for (trace::ScenarioFamily family : trace::kAllScenarioFamilies) {
        for (unsigned step = 0; step < 2; ++step) {
            trace::ScenarioSpec spec;
            spec.family = family;
            spec.numUnits = 2;
            spec.clientCoresPerUnit = 4;
            spec.opsPerCore = static_cast<unsigned>(
                16.0 * (step + 1) * scale);
            if (spec.opsPerCore == 0)
                spec.opsPerCore = 1;
            spec.seed = seed + step;
            const std::string path =
                dir + "/" + trace::scenarioFamilyName(family) + "_s"
                + std::to_string(step + 1) + ".trc";
            trace::writeTraceFile(
                trace::ScenarioGenerator(spec).generate(), path);
        }
    }
    return dir;
}

/**
 * Replays one corpus trace under @p scheme: the file is mmap-read,
 * materialized, and driven through runTrace() on the machine shape the
 * trace dictates, with only the CLI-wide knobs carried over.
 */
harness::RunOutput
replayFile(const harness::BenchOptions &opts,
           const trace::CorpusFile &file, Scheme scheme)
{
    trace::MappedTraceReader reader(file.path);
    const auto opCounts = reader.validateAll();
    const trace::Trace t = reader.materialize();
    SystemConfig cfg = trace::replayConfig(t, scheme);
    cfg.backendName = opts.backend;
    cfg.analyze = opts.analyze;
    cfg.simShards = opts.simShards;
    const harness::RunOutput out = harness::runTrace(cfg, t);

    // The round-trip guarantee: a correct backend executes exactly the
    // operation mix the mmap scan counted.
    std::uint64_t records = 0;
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k)
        records += opCounts[k];
    if (out.ops != records) {
        SYNCRON_FATAL("replay of '" << file.name << "' on "
                                    << schemeName(scheme) << " executed "
                                    << out.ops << " of " << records
                                    << " records");
    }
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
        const std::uint64_t got = out.stats.syncLatency[k].count;
        if (got != opCounts[k]) {
            SYNCRON_FATAL("replay of '"
                          << file.name << "' on " << schemeName(scheme)
                          << " performed " << got << " "
                          << sync::opKindName(static_cast<sync::OpKind>(k))
                          << " ops, trace has " << opCounts[k]);
        }
    }
    return out;
}

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();

    // -- Stage 1: the corpus -------------------------------------------
    std::string dir = opts.traceCorpus;
    RemoveOnExit generated;
    if (dir.empty()) {
        dir = generateCorpus(opts.scale, 1, generated);
        std::cout << "generated corpus -> " << dir << "\n";
    }
    const trace::Corpus corpus = trace::Corpus::open(dir);
    std::cout << "corpus " << corpus.dir() << ": " << corpus.size()
              << " traces, " << corpus.totalBytes() << " bytes\n";

    // -- Stage 2: zero-copy scan (allocation-free record loop) ---------
    std::uint64_t scannedRecords = 0;
    for (const trace::CorpusFile &file : corpus.files()) {
        trace::MappedTraceReader reader(file.path);
        auto cursor = reader.records();
        trace::TraceRecord rec;
        std::uint64_t n = 0;
        const std::uint64_t before =
            gAllocCount.load(std::memory_order_relaxed);
        while (cursor.next(rec))
            ++n;
        const std::uint64_t after =
            gAllocCount.load(std::memory_order_relaxed);
        if (after != before) {
            SYNCRON_FATAL("mmap record loop over "
                          << file.name << " allocated "
                          << (after - before)
                          << " times (zero-copy contract)");
        }
        if (n != reader.recordCount()) {
            SYNCRON_FATAL("mmap scan of " << file.name << " yielded "
                                          << n << " of "
                                          << reader.recordCount()
                                          << " records");
        }
        scannedRecords += n;
    }
    std::cout << "scanned " << scannedRecords << " records across "
              << corpus.size()
              << " traces; record loops allocation-free\n";

    // -- Stage 3: replay the corpus on every backend -------------------
    for (Scheme scheme : kReplaySchemes) {
        for (const trace::CorpusFile &file : corpus.files()) {
            bench.cell(file.name + "/" + schemeName(scheme),
                       [&opts, &file, scheme] {
                           return replayFile(opts, file, scheme);
                       });
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Corpus replay: throughput [ops/ms] per backend",
        {"trace", "records", "SynCron", "Central", "SynCron-flat"});
    std::vector<std::vector<std::string>> rows;
    for (const trace::CorpusFile &file : corpus.files())
        rows.push_back({file.name, ""});
    std::size_t i = 0;
    for (std::size_t s = 0; s < std::size(kReplaySchemes); ++s) {
        for (auto &row : rows) {
            const harness::RunOutput &out = results[i++];
            row[1] = std::to_string(out.ops);
            row.push_back(fmt(out.opsPerMs(), 1));
        }
    }

    for (auto &row : rows)
        table.addRow(std::move(row));
    table.addNote("every replay reproduces its trace's per-OpKind "
                  "counts on every backend (checked); mmap record "
                  "loops are allocation-free (counted)");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH("trace_corpus", run)
