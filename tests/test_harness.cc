/**
 * @file
 * Harness tests: table formatting, bench options, workload defaults, and
 * end-to-end runner outputs (the building blocks of every bench binary).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "harness/report.hh"
#include "harness/grid.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "scratch_file.hh"
#include "sync/registry.hh"
#include "system/system.hh"
#include "workloads/graph/kernels.hh"
#include "workloads/timeseries/scrimp.hh"

namespace syncron::harness {
namespace {

TEST(Table, FormatsAlignedColumnsAndNotes)
{
    TablePrinter t("Demo", {"a", "long-header", "c"});
    t.addRow({"1", "2", "3"});
    t.addRow({"wide-cell", "x", "y"});
    t.addNote("a note");
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("note: a note"), std::string::npos);
}

TEST(Table, RowWidthMismatchPanics)
{
    TablePrinter t("Demo", {"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtX(1.5), "1.50x");
    EXPECT_EQ(fmtPct(0.305), "30.5%");
}

TEST(BenchOptions, ParsesFlags)
{
    const char *argv1[] = {"bench", "--scale=8"};
    auto o1 = BenchOptions::parse(2, const_cast<char **>(argv1));
    EXPECT_DOUBLE_EQ(o1.scale, 8.0);

    const char *argv2[] = {"bench", "--scale=0.5"};
    auto o2 = BenchOptions::parse(2, const_cast<char **>(argv2));
    EXPECT_DOUBLE_EQ(o2.scale, 0.5);

    const char *argv3[] = {"bench", "--bogus"};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char **>(argv3)),
                 std::runtime_error);

    const char *argv4[] = {"bench", "--jobs=8", "--json=out.json",
                           "--backend=Hier"};
    auto o4 = BenchOptions::parse(4, const_cast<char **>(argv4));
    EXPECT_EQ(o4.jobs, 8u);
    EXPECT_EQ(o4.json, "out.json");
    EXPECT_EQ(o4.backend, "Hier");
    EXPECT_EQ(o4.makeConfig(Scheme::SynCron).backendName, "Hier");
}

TEST(BenchOptionsDeathTest, HelpPrintsUsageOnceAndExitsZero)
{
    // The usage goes to stdout and the death-test matcher reads stderr,
    // so the child points stdout there: the whole stream must be the
    // usage, once, with no error before it.
    for (const char *flag : {"--help", "-h"}) {
        const char *argv[] = {"bench", "--scale=0.5", flag};
        EXPECT_EXIT(
            {
                std::cout.rdbuf(std::cerr.rdbuf());
                BenchOptions::parse(3, const_cast<char **>(argv));
            },
            ::testing::ExitedWithCode(0),
            ::testing::Matcher<const std::string &>(
                std::string(BenchOptions::usage()) + "\n"))
            << flag;
    }
}

TEST(BenchOptions, RejectsMalformedValues)
{
    auto parse1 = [](const char *arg) {
        const char *argv[] = {"bench", arg};
        return BenchOptions::parse(2, const_cast<char **>(argv));
    };
    // --scale with no/garbage/non-positive value.
    EXPECT_THROW(parse1("--scale="), std::runtime_error);
    EXPECT_THROW(parse1("--scale=abc"), std::runtime_error);
    EXPECT_THROW(parse1("--scale=1.5x"), std::runtime_error);
    EXPECT_THROW(parse1("--scale=0"), std::runtime_error);
    EXPECT_THROW(parse1("--scale=-1"), std::runtime_error);
    EXPECT_THROW(parse1("--scale=inf"), std::runtime_error);
    EXPECT_THROW(parse1("--scale=nan"), std::runtime_error);
    EXPECT_THROW(parse1("--scale=1e30"), std::runtime_error);
    // --jobs out of range or non-numeric.
    EXPECT_THROW(parse1("--jobs="), std::runtime_error);
    EXPECT_THROW(parse1("--jobs=0"), std::runtime_error);
    EXPECT_THROW(parse1("--jobs=-3"), std::runtime_error);
    EXPECT_THROW(parse1("--jobs=9999"), std::runtime_error);
    EXPECT_THROW(parse1("--jobs=four"), std::runtime_error);
    // --json/--backend need values; backends must be registered.
    EXPECT_THROW(parse1("--json="), std::runtime_error);
    EXPECT_THROW(parse1("--backend="), std::runtime_error);
    // Retired flags: --full (use --scale=8) and the google-benchmark
    // pass-through.
    EXPECT_THROW(parse1("--full"), std::runtime_error);
    EXPECT_THROW(parse1("--benchmark_filter=x"), std::runtime_error);

    // Unknown backends are rejected at parse time (not later inside
    // SystemConfig), and the error lists the registered set.
    try {
        parse1("--backend=NoSuchBackend");
        FAIL() << "expected fatal";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        for (const std::string &name :
             sync::BackendRegistry::instance().names()) {
            EXPECT_NE(what.find(name), std::string::npos)
                << "error should list registered backend '" << name
                << "': " << what;
        }
    }

    // Unknown arguments report the usage text, not just the token.
    try {
        parse1("--definitely-unknown");
        FAIL() << "expected fatal";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("--jobs=<n>"),
                  std::string::npos)
            << "error should include usage: " << e.what();
    }
}

TEST(BenchOptions, ParsesTraceFlags)
{
    const char *argv[] = {"bench", "--trace-out=cap.trc",
                          "--jobs=1"};
    auto o = BenchOptions::parse(3, const_cast<char **>(argv));
    EXPECT_EQ(o.traceOut, "cap.trc");
    EXPECT_TRUE(o.traceIn.empty());
    // --trace-out flows into every grid cell's config as tracePath.
    EXPECT_EQ(o.makeConfig(Scheme::SynCron).tracePath, "cap.trc");

    const char *argv2[] = {"bench", "--trace-in=old.trc"};
    auto o2 = BenchOptions::parse(2, const_cast<char **>(argv2));
    EXPECT_EQ(o2.traceIn, "old.trc");
    EXPECT_TRUE(o2.makeConfig(Scheme::SynCron).tracePath.empty());
}

TEST(BenchOptions, RejectsTraceFlagsWithParallelJobs)
{
    auto parse2 = [](const char *a, const char *b) {
        const char *argv[] = {"bench", a, b};
        return BenchOptions::parse(3, const_cast<char **>(argv));
    };
    // Values are required, like every other path option.
    const char *argvEmpty[] = {"bench", "--trace-out="};
    EXPECT_THROW(
        BenchOptions::parse(2, const_cast<char **>(argvEmpty)),
        std::runtime_error);
    const char *argvEmpty2[] = {"bench", "--trace-in="};
    EXPECT_THROW(
        BenchOptions::parse(2, const_cast<char **>(argvEmpty2)),
        std::runtime_error);

    // Capture races parallel grid workers on the one trace file; the
    // error must say so and show usage.
    try {
        parse2("--trace-out=cap.trc", "--jobs=2");
        FAIL() << "expected fatal for --trace-out --jobs=2";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--jobs=1"), std::string::npos) << what;
        EXPECT_NE(what.find("--trace-out=<path>"), std::string::npos)
            << "error should include usage: " << what;
    }
    // Order of flags must not matter.
    EXPECT_THROW(parse2("--jobs=4", "--trace-out=cap.trc"),
                 std::runtime_error);
    // jobs=1 is explicitly fine.
    EXPECT_NO_THROW(parse2("--trace-out=cap.trc", "--jobs=1"));
    // Replay cells only read their trace, so they run in parallel.
    EXPECT_NO_THROW(parse2("--trace-in=cap.trc", "--jobs=2"));
    EXPECT_NO_THROW(parse2("--jobs=4", "--trace-in=traces"));

    // Capture and replay-from-file are mutually exclusive; combining
    // them would silently drop --trace-out.
    try {
        parse2("--trace-out=a.trc", "--trace-in=b.trc");
        FAIL() << "expected fatal";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("mutually exclusive"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BenchOptions, ParsesSimShards)
{
    auto parse1 = [](const char *a) {
        const char *argv[] = {"bench", a};
        return BenchOptions::parse(2, const_cast<char **>(argv));
    };
    EXPECT_EQ(parse1("--scale=1").simShards, 1u); // default
    EXPECT_EQ(parse1("--sim-shards=1").simShards, 1u);
    EXPECT_EQ(parse1("--sim-shards=4").simShards, 4u);
    EXPECT_EQ(parse1("--sim-shards=64").simShards, 64u);

    EXPECT_THROW(parse1("--sim-shards="), std::runtime_error);
    EXPECT_THROW(parse1("--sim-shards=0"), std::runtime_error);
    EXPECT_THROW(parse1("--sim-shards=-2"), std::runtime_error);
    EXPECT_THROW(parse1("--sim-shards=65"), std::runtime_error);
    EXPECT_THROW(parse1("--sim-shards=four"), std::runtime_error);
    EXPECT_THROW(parse1("--sim-shards=4x"), std::runtime_error);

    // The shard count flows into every machine the bench builds.
    auto opts = parse1("--sim-shards=4");
    EXPECT_EQ(opts.makeConfig(Scheme::SynCron, 4, 4).simShards, 4u);
}

TEST(BenchOptions, RejectsSimShardsWithIncompatibleModes)
{
    auto parse2 = [](const char *a, const char *b) {
        const char *argv[] = {"bench", a, b};
        return BenchOptions::parse(3, const_cast<char **>(argv));
    };
    // The trace writer, crash injection, and the durability log all
    // assume one global event order; each rejection must name the fix
    // and show usage.
    struct Case
    {
        const char *flag;
        const char *reason;
    };
    for (const Case &c : {Case{"--trace-out=cap.trc", "trace capture"},
                          Case{"--crash-at=1000", "crash injection"},
                          Case{"--persist=eager", "durability log"}}) {
        try {
            parse2(c.flag, "--sim-shards=2");
            FAIL() << "expected fatal for " << c.flag
                   << " --sim-shards=2";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("--sim-shards=1"), std::string::npos)
                << what;
            EXPECT_NE(what.find(c.reason), std::string::npos) << what;
            EXPECT_NE(what.find("--sim-shards=<n>"), std::string::npos)
                << "error should include usage: " << what;
        }
        // Order of flags must not matter; an explicit 1 is fine.
        EXPECT_THROW(parse2("--sim-shards=2", c.flag),
                     std::runtime_error);
        EXPECT_NO_THROW(parse2(c.flag, "--sim-shards=1"));
    }
    // Replay and analysis are compatible: both consume the one merged
    // event order the sharded run still guarantees.
    EXPECT_NO_THROW(parse2("--trace-in=cap.trc", "--sim-shards=2"));
    EXPECT_NO_THROW(parse2("--analyze", "--sim-shards=4"));
}

TEST(BenchOptions, ParsesDurabilityFlags)
{
    const char *argv[] = {"bench", "--persist=eager",
                          "--crash-at=5000"};
    auto o = BenchOptions::parse(3, const_cast<char **>(argv));
    EXPECT_EQ(o.persist, durability::PersistMode::Eager);
    EXPECT_EQ(o.crashAt, Tick{5000});
    const SystemConfig cfg = o.makeConfig(Scheme::SynCron);
    EXPECT_EQ(cfg.persistMode, durability::PersistMode::Eager);
    EXPECT_EQ(cfg.crashAtTick, Tick{5000});

    // epoch[:N] selects the batch size; bare epoch keeps the default.
    const char *argv2[] = {"bench", "--persist=epoch:16"};
    auto o2 = BenchOptions::parse(2, const_cast<char **>(argv2));
    EXPECT_EQ(o2.persist, durability::PersistMode::Epoch);
    EXPECT_EQ(o2.persistEpochOps, 16u);
    EXPECT_EQ(o2.makeConfig(Scheme::SynCron).persistEpochOps, 16u);

    const char *argv3[] = {"bench", "--persist=epoch"};
    auto o3 = BenchOptions::parse(2, const_cast<char **>(argv3));
    EXPECT_EQ(o3.persist, durability::PersistMode::Epoch);
    EXPECT_EQ(o3.persistEpochOps, 64u);

    const char *argv4[] = {"bench", "--crash-sweep=3"};
    auto o4 = BenchOptions::parse(2, const_cast<char **>(argv4));
    EXPECT_EQ(o4.crashSweepEvery, 3u);

    auto parse1 = [](const char *arg) {
        const char *argv1[] = {"bench", arg};
        return BenchOptions::parse(2, const_cast<char **>(argv1));
    };
    EXPECT_THROW(parse1("--persist="), std::runtime_error);
    EXPECT_THROW(parse1("--persist=bogus"), std::runtime_error);
    EXPECT_THROW(parse1("--persist=epoch:"), std::runtime_error);
    EXPECT_THROW(parse1("--persist=epoch:0"), std::runtime_error);
    // A batch size only makes sense for epoch mode.
    EXPECT_THROW(parse1("--persist=eager:8"), std::runtime_error);
    EXPECT_THROW(parse1("--crash-at="), std::runtime_error);
    EXPECT_THROW(parse1("--crash-at=0"), std::runtime_error);
    EXPECT_THROW(parse1("--crash-at=soon"), std::runtime_error);
    EXPECT_THROW(parse1("--crash-sweep=0"), std::runtime_error);
}

TEST(BenchOptions, RejectsCrashInjectionWithParallelJobs)
{
    auto parse2 = [](const char *a, const char *b) {
        const char *argv[] = {"bench", a, b};
        return BenchOptions::parse(3, const_cast<char **>(argv));
    };
    // Crash injection tears one deterministic machine down mid-run; a
    // parallel grid has no single machine to crash. The error must
    // point at --jobs=1 and show usage, mirroring the trace guard.
    try {
        parse2("--crash-at=1000", "--jobs=2");
        FAIL() << "expected fatal for --crash-at --jobs=2";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--jobs=1"), std::string::npos) << what;
        EXPECT_NE(what.find("--crash-at=<t>"), std::string::npos)
            << "error should include usage: " << what;
    }
    // Order of flags must not matter.
    EXPECT_THROW(parse2("--jobs=4", "--crash-at=1000"),
                 std::runtime_error);
    // jobs=1 is explicitly fine.
    EXPECT_NO_THROW(parse2("--crash-at=1000", "--jobs=1"));
}

TEST(BenchOptions, ParsesLoadAndSloFlags)
{
    const char *argv[] = {"bench",
                          "--load=bursty:rate=2,window=8,policy=drop",
                          "--slo-p99=1500"};
    auto o = BenchOptions::parse(3, const_cast<char **>(argv));
    EXPECT_TRUE(o.hasLoad);
    EXPECT_EQ(o.loadSpec.kind, load::ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(o.loadSpec.ratePerUs, 2.0);
    EXPECT_EQ(o.loadSpec.window, 8u);
    EXPECT_EQ(o.loadSpec.policy, load::OverloadPolicy::Drop);
    EXPECT_DOUBLE_EQ(o.sloP99Ns, 1500.0);

    // Both are optional: absent means defaults.
    const char *argv2[] = {"bench"};
    auto o2 = BenchOptions::parse(1, const_cast<char **>(argv2));
    EXPECT_FALSE(o2.hasLoad);
    EXPECT_DOUBLE_EQ(o2.sloP99Ns, 0.0);
}

TEST(BenchOptions, RejectsMalformedLoadAndSloFlags)
{
    auto parse1 = [](const char *arg) {
        const char *argv[] = {"bench", arg};
        return BenchOptions::parse(2, const_cast<char **>(argv));
    };
    // A bad --load spec is fatal with the parser's reason AND the
    // usage text, like --trace-out/--crash-at errors.
    try {
        parse1("--load=gaussian:rate=2");
        FAIL() << "expected fatal for unknown arrival kind";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown arrival kind"), std::string::npos)
            << what;
        EXPECT_NE(what.find("--load=<spec>"), std::string::npos)
            << "error should include usage: " << what;
    }
    EXPECT_THROW(parse1("--load="), std::runtime_error);
    EXPECT_THROW(parse1("--load=poisson:rate=0"), std::runtime_error);
    EXPECT_THROW(parse1("--load=poisson:window=0"),
                 std::runtime_error);
    EXPECT_THROW(parse1("--load=poisson:policy=maybe"),
                 std::runtime_error);
    EXPECT_THROW(parse1("--load=poisson:frobnicate=1"),
                 std::runtime_error);

    // --slo-p99 needs a positive finite latency.
    try {
        parse1("--slo-p99=-5");
        FAIL() << "expected fatal for negative SLO";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("positive latency"), std::string::npos)
            << what;
        EXPECT_NE(what.find("--slo-p99=<ns>"), std::string::npos)
            << "error should include usage: " << what;
    }
    EXPECT_THROW(parse1("--slo-p99="), std::runtime_error);
    EXPECT_THROW(parse1("--slo-p99=0"), std::runtime_error);
    EXPECT_THROW(parse1("--slo-p99=abc"), std::runtime_error);
    EXPECT_THROW(parse1("--slo-p99=inf"), std::runtime_error);
    EXPECT_THROW(parse1("--slo-p99=nan"), std::runtime_error);
}

TEST(Runner, DsDefaultsCoverAllStructures)
{
    for (DsKind kind : kAllDsKinds) {
        const DsParams p = dsDefaults(kind, 1.0);
        EXPECT_GE(p.initialSize, 8u) << dsName(kind);
        EXPECT_GE(p.opsPerCore, 1u) << dsName(kind);
        EXPECT_STRNE(dsName(kind), "?");
        // --scale=8 scales sizes up.
        EXPECT_GE(dsDefaults(kind, 8.0).initialSize, p.initialSize);
    }
}

TEST(Runner, AppInputsMatchThePapersTwentySix)
{
    const auto all = allAppInputs();
    EXPECT_EQ(all.size(), 26u);
    unsigned ts = 0;
    for (const AppInput &ai : all) {
        if (ai.app == "ts")
            ++ts;
    }
    EXPECT_EQ(ts, 2u);
}

TEST(Runner, DataStructureRunProducesConsistentOutput)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
    auto out = runDataStructure(cfg, DsKind::Stack, 64, 5);
    EXPECT_EQ(out.ops, 8u * 5u);
    EXPECT_GT(out.time, 0u);
    EXPECT_GT(out.opsPerMs(), 0.0);
    EXPECT_GT(out.stats.syncOps, 0u);
    EXPECT_GT(out.energy.total(), 0.0);
    EXPECT_EQ(out.overflowFrac(), 0.0);
}

/** The cells specBody() queues, and what its Bench::run() returned. */
std::vector<std::pair<std::string, CellSpec>> gCells;
std::vector<RunOutput> gResults;

int
specBody(Bench &bench)
{
    for (const auto &[label, spec] : gCells)
        bench.cell(label, spec);
    gResults = bench.run();
    return 0;
}

/**
 * Runs @p cells as one bench on two grid workers; returns how many of
 * them it simulated (the rest came from the process-wide memo), as its
 * "harness:" line states. Their outputs land in @p results.
 */
std::size_t
runSpecs(std::vector<std::pair<std::string, CellSpec>> cells,
         std::vector<RunOutput> *results = nullptr)
{
    gCells = std::move(cells);
    const char *argv[] = {"bench", "--jobs=2"};
    ::testing::internal::CaptureStdout();
    const int rc = benchMain({{"demo_bench", specBody}}, 2,
                             const_cast<char **>(argv));
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0) << out;
    if (results != nullptr)
        *results = gResults;
    std::size_t configs = 0, simulated = 0;
    const std::size_t at = out.find("harness: ");
    EXPECT_NE(at, std::string::npos) << out;
    EXPECT_EQ(std::sscanf(out.c_str() + at, "harness: %zu configs, %zu",
                          &configs, &simulated),
              2)
        << out;
    EXPECT_EQ(configs, gCells.size());
    return simulated;
}

// Each test below uses an input scale of its own, so that no spec is
// already in the memo from another test.

TEST(Runner, GraphRunRespectsPartitioningFlag)
{
    const SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 4);
    std::vector<RunOutput> out;
    runSpecs({{"range", {cfg, CellSpec::App{"tf", "wk", 0.1}}},
              {"greedy", {cfg, CellSpec::App{"tf", "wk", 0.1, true}}}},
             &out);
    ASSERT_EQ(out.size(), 2u);
    const RunOutput &range = out[0], &metis = out[1];
    EXPECT_GT(range.ops, 0u);
    EXPECT_EQ(range.ops, metis.ops) << "same updates, different layout";
    // Better placement must not increase cross-unit traffic.
    EXPECT_LE(metis.stats.bytesAcrossUnits,
              range.stats.bytesAcrossUnits);
}

TEST(Runner, TimeSeriesRunReportsOccupancy)
{
    std::vector<RunOutput> out;
    runSpecs({{"ts.air", {SystemConfig::make(Scheme::SynCron, 4, 4),
                          CellSpec::App{"ts", "air", 0.3}}}},
             &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(out[0].ops, 0u);
    EXPECT_GT(out[0].stMaxFrac, 0.0);
    EXPECT_LE(out[0].stMaxFrac, 1.0);
    EXPECT_GT(out[0].stAvgFrac, 0.0);
}

TEST(Runner, DeterministicAcrossInvocations)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
    auto a = runDataStructure(cfg, DsKind::HashTable, 64, 6);
    auto b = runDataStructure(cfg, DsKind::HashTable, 64, 6);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.stats.syncLocalMsgs, b.stats.syncLocalMsgs);
    EXPECT_EQ(a.stats.dramReads, b.stats.dramReads);
}

TEST(Runner, EqualSpecsSimulateOnce)
{
    const CellSpec spec{SystemConfig::make(Scheme::SynCron, 2, 4),
                        CellSpec::Ds{DsKind::HashTable, 72, 5}};
    std::vector<RunOutput> out;
    EXPECT_EQ(runSpecs({{"a", spec}, {"b", spec}}, &out), 1u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_GT(out[0].ops, 0u);
    EXPECT_EQ(out[0].time, out[1].time);
    EXPECT_EQ(out[0].ops, out[1].ops);
    EXPECT_EQ(out[0].hostEvents, out[1].hostEvents);
    EXPECT_EQ(out[0].stats.syncOps, out[1].stats.syncOps);
    EXPECT_EQ(out[0].stats.syncLocalMsgs, out[1].stats.syncLocalMsgs);
    EXPECT_EQ(out[0].energy.total(), out[1].energy.total());
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
        EXPECT_EQ(out[0].stats.syncLatency[k].hist,
                  out[1].stats.syncLatency[k].hist);
    }
    // A later bench in the same process is served from the memo.
    EXPECT_EQ(runSpecs({{"c", spec}}), 0u);
}

TEST(Runner, SpecsDifferingInOneFieldEachSimulate)
{
    const CellSpec base{SystemConfig::make(Scheme::SynCron, 2, 4),
                        CellSpec::App{"tf", "wk", 0.07}};
    std::vector<std::pair<std::string, CellSpec>> cells{{"base", base}};
    auto vary = [&](const char *label, void (*edit)(CellSpec &)) {
        CellSpec spec = base;
        edit(spec);
        ASSERT_FALSE(spec == base) << label;
        cells.emplace_back(label, spec);
    };
    vary("scheme", [](CellSpec &s) { s.cfg.scheme = Scheme::Hier; });
    vary("numUnits", [](CellSpec &s) { s.cfg.numUnits = 4; });
    vary("flightTicks", [](CellSpec &s) { ++s.cfg.link.flightTicks; });
    vary("stEntries", [](CellSpec &s) { s.cfg.stEntries = 32; });
    vary("dramTech",
         [](CellSpec &s) { s.cfg.dramTech = mem::DramTech::Ddr4; });
    vary("backendName",
         [](CellSpec &s) { s.cfg.backendName = "SynCron"; });
    vary("analyze", [](CellSpec &s) { s.cfg.analyze = true; });
    vary("metis", [](CellSpec &s) {
        std::get<CellSpec::App>(s.work).metis = true;
    });
    vary("inputScale", [](CellSpec &s) {
        std::get<CellSpec::App>(s.work).inputScale = 0.08;
    });
    EXPECT_EQ(runSpecs(cells), cells.size());
}

TEST(Runner, MemoServedAppCellsMatchFreshInputs)
{
    // A memo-served app cell must equal the same spec run standalone on
    // an input, series and partition generated afresh.
    const SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 4);
    const std::vector<std::pair<std::string, CellSpec>> cells = {
        {"tf.wk/range", {cfg, CellSpec::App{"tf", "wk", 0.12}}},
        {"tf.wk/greedy", {cfg, CellSpec::App{"tf", "wk", 0.12, true}}},
        {"ts.air", {cfg, CellSpec::App{"ts", "air", 0.12}}},
    };
    EXPECT_EQ(runSpecs(cells), cells.size());
    std::vector<RunOutput> served;
    EXPECT_EQ(runSpecs(cells, &served), 0u);
    ASSERT_EQ(served.size(), cells.size());

    const workloads::Graph wk = workloads::makeProxyInput("wk", 0.12);
    for (bool metis : {false, true}) {
        NdpSystem sys(cfg);
        workloads::PlacedGraph placed(
            sys, wk,
            metis ? workloads::greedyPartition(wk, 4)
                  : workloads::rangePartition(wk, 4));
        const workloads::GraphRunResult fresh =
            workloads::runGraphApp(sys, placed, workloads::GraphApp::Tf);
        const RunOutput &memo = served[metis ? 1 : 0];
        EXPECT_EQ(memo.time, fresh.time) << metis;
        EXPECT_EQ(memo.ops, fresh.updates) << metis;
        EXPECT_EQ(memo.stats.bytesAcrossUnits,
                  sys.stats().bytesAcrossUnits)
            << metis;
    }

    NdpSystem sys(cfg);
    workloads::ScrimpWorkload ts(sys,
                                 workloads::makeProxySeries("air", 0.12));
    const Tick time = ts.run();
    EXPECT_EQ(served[2].time, time);
    EXPECT_EQ(served[2].ops, ts.updates());
    EXPECT_EQ(served[2].stats.syncOps, sys.stats().syncOps);
}

TEST(Grid, UnevenTasksKeepAllWorkersBusyAndResultsOrdered)
{
    // A deliberately lopsided grid (one long task first, a long tail
    // of short ones) exercises the atomic claim index: any static
    // split would serialize behind the long cell, and results must
    // land at their submission index regardless of completion order.
    std::vector<std::function<int()>> tasks;
    std::atomic<unsigned> concurrent{0};
    std::atomic<unsigned> maxConcurrent{0};
    for (int i = 0; i < 24; ++i) {
        tasks.push_back([i, &concurrent, &maxConcurrent] {
            const unsigned now = ++concurrent;
            unsigned seen = maxConcurrent.load();
            while (now > seen
                   && !maxConcurrent.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(i == 0 ? 30 : 1));
            --concurrent;
            return i * i;
        });
    }
    const auto parallel = runGrid(tasks, 4);
    const auto serial = runGrid(tasks, 1);
    ASSERT_EQ(parallel.size(), 24u);
    EXPECT_EQ(parallel, serial);
    for (int i = 0; i < 24; ++i)
        EXPECT_EQ(parallel[i], i * i);
    // While task 0 sleeps, the claim index must hand the short cells
    // to the other workers.
    EXPECT_GE(maxConcurrent.load(), 2u);
}

/** Occurrences of @p needle in @p hay. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + 1))
        ++n;
    return n;
}

/** The last non-empty line of @p text. */
std::string
lastLine(const std::string &text)
{
    const std::size_t end = text.find_last_not_of('\n');
    if (end == std::string::npos)
        return "";
    const std::size_t nl = text.rfind('\n', end);
    return text.substr(nl == std::string::npos ? 0 : nl + 1,
                       end - (nl == std::string::npos ? 0 : nl + 1) + 1);
}

/** A death-test stderr matcher from a predicate. */
::testing::Matcher<const std::string &>
stderrWhere(bool (*pred)(const std::string &))
{
    struct Impl : ::testing::MatcherInterface<const std::string &>
    {
        explicit Impl(bool (*p)(const std::string &)) : pred(p) {}
        bool
        MatchAndExplain(const std::string &err,
                        ::testing::MatchResultListener *) const override
        {
            return pred(err);
        }
        void
        DescribeTo(std::ostream *os) const override
        {
            *os << "stderr satisfying the test's predicate";
        }
        bool (*pred)(const std::string &);
    };
    return ::testing::Matcher<const std::string &>(new Impl(pred));
}

/** A small Stack cell on one unit of two client cores. */
CellSpec
stackCell(unsigned initialSize = 16, unsigned opsPerCore = 2)
{
    return {SystemConfig::make(Scheme::SynCron, 1, 2),
            CellSpec::Ds{DsKind::Stack, initialSize, opsPerCore}};
}

/**
 * Two failing cells between good ones: the lower one is at fault. Each
 * fails its machine's validation: A's crossbar and links are free (a
 * zero cross-unit lookahead), B has no ST entries.
 */
int
failingCellsBody(Bench &bench)
{
    CellSpec badA = stackCell();
    badA.cfg.numUnits = 2;
    badA.cfg.xbar.cyclePeriod = 0;
    badA.cfg.link.ctrlCycles = 0;
    badA.cfg.link.flightTicks = 0;
    CellSpec badB = stackCell();
    badB.cfg.stEntries = 0;
    bench.cell("good/0", stackCell(17));
    bench.cell("bad/A", badA);
    bench.cell("good/1", stackCell(18));
    bench.cell("bad/B", badB);
    bench.run();
    return 0;
}

TEST(BenchMainDeathTest, FailingCellExitsTwoNamingTheFirstFailingCell)
{
    for (const char *jobs : {"--jobs=1", "--jobs=4"}) {
        const char *argv[] = {"bench", jobs, "--scale=0.5"};
        EXPECT_EXIT(
            std::exit(benchMain({{"demo_bench", failingCellsBody}}, 3,
                                const_cast<char **>(argv))),
            ::testing::ExitedWithCode(2),
            stderrWhere([](const std::string &err) {
                const std::string last = lastLine(err);
                return countOf(err, "zero cross-unit lookahead") == 1
                       && countOf(err, "stEntries must be >= 1") == 1
                       && countOf(err, "demo_bench") == 1
                       && countOf(last, "demo_bench") == 1
                       && countOf(last, "'bad/A'") == 1
                       && countOf(last, "--scale=0.5") == 1
                       && countOf(last, "--sim-shards=1") == 1
                       && countOf(err, "bad/B") == 0
                       && countOf(err, "terminate called") == 0;
            }))
            << jobs;
    }
}

TEST(BenchMainDeathTest, UnknownFlagExitsTwoWithOneMessage)
{
    const char *argv[] = {"bench", "--bogus"};
    EXPECT_EXIT(
        std::exit(benchMain({{"demo_bench", [](Bench &) { return 0; }}}, 2,
                            const_cast<char **>(argv))),
        ::testing::ExitedWithCode(2),
        stderrWhere([](const std::string &err) {
            return countOf(err, "unknown argument '--bogus'") == 1
                   && countOf(lastLine(err), "demo_bench") == 1
                   && countOf(err, "terminate called") == 0;
        }));
}

/** The value the next death test's stderr must quote exactly once. */
std::string gQuoted;

TEST(BenchMainDeathTest, SignedIntegerOptionsExitTwoWithOneMessage)
{
    // strtoull accepts a sign and wraps a '-': --crash-at=-1 would be
    // 2^64-1, a crash that never comes, and the --jobs value 1.
    for (const char *arg :
         {"--crash-at=-1", "--jobs=-18446744073709551615",
          "--crash-sweep=-2", "--persist=epoch:-1", "--sim-shards=+2",
          "--jobs= 2"}) {
        const std::string text = arg;
        gQuoted.assign(1, '\'')
            .append(text, text.find_last_of("=:") + 1)
            .append(1, '\'');
        const char *argv[] = {"bench", arg};
        EXPECT_EXIT(
            std::exit(benchMain({{"demo_bench", [](Bench &) { return 0; }}},
                                2, const_cast<char **>(argv))),
            ::testing::ExitedWithCode(2),
            stderrWhere([](const std::string &err) {
                return countOf(err, "fatal: bad --") == 1
                       && countOf(err, gQuoted) == 1
                       && countOf(lastLine(err), "demo_bench") == 1
                       && countOf(err, "terminate called") == 0;
            }))
            << arg;
    }
}

TEST(BenchMainDeathTest, GateFailureExitsOne)
{
    const char *argv[] = {"bench"};
    EXPECT_EXIT(
        std::exit(benchMain({{"demo_bench",
                              [](Bench &bench) {
                                  bench.cell("only", stackCell());
                                  bench.run();
                                  return 1;
                              }}},
                            1, const_cast<char **>(argv))),
        ::testing::ExitedWithCode(1), "");
}

/**
 * Twelve cells whose labels sort opposite to submission order. Early
 * cells run the most ops, so they finish last under parallel workers;
 * the input size differs per --jobs value, so no run is served from the
 * memo of another.
 */
int
labeledBody(Bench &bench)
{
    const unsigned size = 20 + bench.opts().jobs;
    for (unsigned i = 0; i < 12; ++i)
        bench.cell("cell" + std::to_string(99 - i), stackCell(size, 12 - i));
    const std::vector<RunOutput> results = bench.run();
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(results[i].ops, 2u * (12 - i));
    return 0;
}

/** The values of every @p key string field in @p text, in order. */
std::vector<std::string>
jsonStrings(const std::string &text, const std::string &key)
{
    std::vector<std::string> values;
    const std::string field = "\"" + key + "\": \"";
    for (std::size_t at = text.find(field); at != std::string::npos;
         at = text.find(field, at + 1)) {
        const std::size_t begin = at + field.size();
        values.push_back(text.substr(begin, text.find('"', begin) - begin));
    }
    return values;
}

/**
 * Runs @p benches as a binary named @p argv0 with @p jobs workers and
 * --json; returns the record's text and stores the exit code in @p rc.
 */
std::string
jsonRecord(std::vector<BenchEntry> benches, const char *argv0,
           const char *jobs, int *rc)
{
    trace::ScratchFile json;
    const std::string path = json.write("");
    const std::string jsonArg = "--json=" + path;
    const char *argv[] = {argv0, jobs, jsonArg.c_str()};
    *rc = benchMain(std::move(benches), 3, const_cast<char **>(argv));
    std::stringstream ss;
    ss << std::ifstream(path).rdbuf();
    return ss.str();
}

/** The report's labels, in record order, with @p jobs grid workers. */
std::vector<std::string>
reportedLabels(const char *jobs)
{
    int rc = -1;
    const std::string text =
        jsonRecord({{"demo_bench", labeledBody}}, "bench", jobs, &rc);
    EXPECT_EQ(rc, 0);
    return jsonStrings(text, "label");
}

TEST(BenchMain, ReportLabelsFollowSubmissionOrderForAnyJobs)
{
    std::vector<std::string> want;
    for (int i = 0; i < 12; ++i)
        want.push_back("cell" + std::to_string(99 - i));
    EXPECT_EQ(reportedLabels("--jobs=1"), want);
    EXPECT_EQ(reportedLabels("--jobs=4"), want);
}

/** How alphaBody behaves, and which demo benches ran, in order. */
int gAlphaRc = 0;
bool gAlphaFails = false;
std::vector<std::string> gRan;

int
alphaBody(Bench &bench)
{
    gRan.push_back("alpha_demo");
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 1, 2);
    bench.cell("ok", {cfg, CellSpec::Ds{DsKind::Stack, 16, 2}});
    if (gAlphaFails) {
        cfg.backendName = "Bogus";
        bench.cell("bad", {cfg, CellSpec::Ds{DsKind::Stack, 16, 2}});
    }
    bench.run();
    return gAlphaRc;
}

int
zetaBody(Bench &bench)
{
    gRan.push_back("zeta_demo");
    bench.cell("only", stackCell());
    bench.run();
    return 0;
}

// Registered out of name order; the driver runs them sorted.
SYNCRON_BENCH("zeta_demo", zetaBody)
SYNCRON_BENCH("alpha_demo", alphaBody)

const std::vector<std::string> kBothDemos = {"alpha_demo", "zeta_demo"};

TEST(BenchRegistry, BenchesRunInNameOrderUnderPrefixedLabels)
{
    ASSERT_EQ(registeredBenches().size(), 2u);
    EXPECT_EQ(registeredBenches()[0].name, "zeta_demo");
    gRan.clear();
    int rc = -1;
    const std::string text = jsonRecord(
        registeredBenches(), "/some/dir/bench_demo", "--jobs=2", &rc);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(gRan, kBothDemos);
    EXPECT_EQ(jsonStrings(text, "bench"), std::vector<std::string>{"demo"});
    EXPECT_EQ(jsonStrings(text, "label"),
              (std::vector<std::string>{"alpha_demo/ok", "zeta_demo/only"}));
}

TEST(BenchRegistry, GateFailureRunsTheRestAndExitsOne)
{
    gRan.clear();
    gAlphaRc = 1;
    int rc = -1;
    jsonRecord(registeredBenches(), "bench_demo", "--jobs=1", &rc);
    gAlphaRc = 0;
    EXPECT_EQ(rc, 1);
    EXPECT_EQ(gRan, kBothDemos);
}

TEST(BenchRegistry, BenchOptionRunsTheNamedBenches)
{
    // One selected bench reports under its own name, unprefixed, as its
    // own binary would.
    gRan.clear();
    int rc = -1;
    std::string text = jsonRecord(registeredBenches(), "bench_demo",
                                  "--bench=zeta_demo", &rc);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(gRan, std::vector<std::string>{"zeta_demo"});
    EXPECT_EQ(jsonStrings(text, "bench"),
              std::vector<std::string>{"zeta_demo"});
    EXPECT_EQ(jsonStrings(text, "label"), std::vector<std::string>{"only"});

    // Several run in name order, whatever order the list gives.
    gRan.clear();
    text = jsonRecord(registeredBenches(), "bench_demo",
                      "--bench=zeta_demo,alpha_demo", &rc);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(gRan, kBothDemos);
    EXPECT_EQ(jsonStrings(text, "bench"), std::vector<std::string>{"demo"});
}

TEST(BenchRegistryDeathTest, UnknownBenchExitsTwoWithOneLineNamingTheKnown)
{
    for (const char *arg :
         {"--bench=nope", "--bench=", "--bench=zeta_demo,"}) {
        const char *argv[] = {"bench_demo", arg};
        EXPECT_EXIT(std::exit(benchMain(registeredBenches(), 2,
                                        const_cast<char **>(argv))),
                    ::testing::ExitedWithCode(2),
                    stderrWhere([](const std::string &err) {
                        return countOf(err, "\n") == 1
                               && countOf(err, "unknown --bench '") == 1
                               && countOf(err, "alpha_demo") == 1
                               && countOf(err, "zeta_demo") == 1;
                    }))
            << arg;
    }
}

TEST(BenchRegistryDeathTest, FailingCellExitsTwoNamingBenchAndCell)
{
    gAlphaFails = true;
    const char *argv[] = {"bench_demo", "--jobs=2"};
    EXPECT_EXIT(std::exit(benchMain(registeredBenches(), 2,
                                    const_cast<char **>(argv))),
                ::testing::ExitedWithCode(2),
                stderrWhere([](const std::string &err) {
                    return countOf(lastLine(err),
                                   "error: demo failed in cell "
                                   "'alpha_demo/bad'")
                               == 1
                           && countOf(err, "Bogus") > 0
                           && countOf(err, "terminate called") == 0;
                }));
    gAlphaFails = false;
}

} // namespace
} // namespace syncron::harness
