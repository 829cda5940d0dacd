/**
 * @file
 * Sharded-simulation scaling bench: host events/sec of one 16-unit
 * SynCron machine as --sim-shards grows.
 *
 * One simulation, not a grid: every row re-runs the same fine-grained
 * skip-list workload (per-node locks spread across all units, so every
 * shard carries sync and memory traffic) with the machine split across
 * 1, 2, 4, and 8 host threads. The bit-identity contract is asserted
 * inline — all rows must produce the same final tick, operation count,
 * and SystemStats — so the speedup column is guaranteed to measure the
 * identical simulation.
 *
 * Gate: >= 1.5x host events/sec at 4 shards vs 1, checked only when the
 * host has at least 4 hardware threads (single-core CI runners report
 * the sweep but skip the assertion).
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "system/system.hh"

using namespace syncron;
using harness::fmt;
using harness::fmtX;

namespace {

constexpr unsigned kUnits = 16;
constexpr unsigned kCoresPerUnit = 2;
constexpr unsigned kShardCounts[] = {1, 2, 4, 8};
constexpr double kGateSpeedup = 1.5;
constexpr unsigned kGateShards = 4;
constexpr unsigned kGateMinHostThreads = 4;

void
assertIdentical(const harness::RunOutput &ref,
                const harness::RunOutput &out, unsigned shards)
{
    SYNCRON_ASSERT(ref.time == out.time,
                   "sharded run diverged: simTicks " << out.time << " @"
                       << shards << " shards vs " << ref.time << " @1");
    SYNCRON_ASSERT(ref.ops == out.ops,
                   "sharded run diverged: ops " << out.ops << " @"
                       << shards << " shards vs " << ref.ops << " @1");
    std::vector<double> a;
    std::vector<double> b;
    ref.stats.forEach(
        [&](const std::string &, double v) { a.push_back(v); });
    out.stats.forEach(
        [&](const std::string &, double v) { b.push_back(v); });
    SYNCRON_ASSERT(a == b, "sharded run diverged: SystemStats differ @"
                               << shards << " shards");
}

int
run(harness::Bench &bench)
{
    const double scale = bench.opts().scale;
    const auto initialSize = static_cast<unsigned>(2000 * scale);
    const auto opsPerCore = static_cast<unsigned>(24 * scale);
    const unsigned hostThreads = std::thread::hardware_concurrency();

    for (unsigned shards : kShardCounts) {
        bench.cell("shards=" + std::to_string(shards),
                   [shards, initialSize, opsPerCore] {
                       SystemConfig cfg = SystemConfig::make(
                           Scheme::SynCron, kUnits, kCoresPerUnit);
                       cfg.simShards = shards;
                       return harness::runDataStructure(
                           cfg, harness::DsKind::SkipList, initialSize,
                           opsPerCore);
                   });
    }
    // One row at a time whatever --jobs says: each row times the host.
    const auto results = bench.run(1);
    for (std::size_t i = 1; i < results.size(); ++i)
        assertIdentical(results.front(), results[i], kShardCounts[i]);

    const double baseRate = results.front().hostEventsPerSec();
    harness::TablePrinter table(
        "scale_units: one 16-unit machine, host threads vs events/sec",
        {"shards", "sim ticks", "host events", "host [ms]", "Mev/s",
         "speedup"});
    double gateSpeedup = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const unsigned shards = kShardCounts[i];
        const harness::RunOutput &out = results[i];
        const double rate = out.hostEventsPerSec();
        const double speedup = baseRate > 0.0 ? rate / baseRate : 0.0;
        if (shards == kGateShards)
            gateSpeedup = speedup;
        bench.metric("speedup.shards" + std::to_string(shards), speedup);
        table.addRow({std::to_string(shards), std::to_string(out.time),
                      std::to_string(out.hostEvents),
                      fmt(static_cast<double>(out.hostNs) / 1e6, 2),
                      fmt(rate / 1e6, 2), fmtX(speedup)});
    }
    table.addNote("all rows bit-identical (asserted): same final tick, "
                  "ops, and stats");
    const bool gateActive = hostThreads >= kGateMinHostThreads;
    table.addNote(
        gateActive
            ? "gate: >= " + fmtX(kGateSpeedup) + " at "
                  + std::to_string(kGateShards) + " shards"
            : "gate skipped: host has " + std::to_string(hostThreads)
                  + " hardware thread(s), need "
                  + std::to_string(kGateMinHostThreads));
    table.print(std::cout);

    bench.metric("gateActive", gateActive ? 1.0 : 0.0);
    bench.metric("hostThreads", hostThreads);

    if (gateActive && gateSpeedup < kGateSpeedup) {
        std::cout << "scale_units gate FAILED: " << fmtX(gateSpeedup)
                  << " at " << kGateShards << " shards (need >= "
                  << fmtX(kGateSpeedup) << ")\n";
        return 1;
    }
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("scale_units", run)
