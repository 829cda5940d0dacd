/**
 * @file
 * Reproduces paper Fig. 23: BST_FG throughput under the three overflow
 * schemes — SynCron's integrated hardware-only scheme vs MiSAR-style
 * aborts to a central (SynCron_CentralOvrfl) or distributed
 * (SynCron_DistribOvrfl) software fallback — sweeping the ST size.
 *
 * Expected shape: with heavy overflow (small STs) the integrated scheme
 * degrades by only a few percent while the MiSAR-style schemes lose
 * ~10-12% (paper, at 30.5% overflowed requests with a 64-entry ST).
 */

#include <iostream>
#include <vector>

#include "harness/report.hh"
#include "harness/table.hh"

using namespace syncron;
using harness::fmt;
using harness::fmtPct;

namespace {

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const unsigned sizes[] = {16, 32, 48, 64, 128, 256};
    const Scheme schemes[] = {Scheme::SynCron,
                              Scheme::SynCronCentralOvrfl,
                              Scheme::SynCronDistribOvrfl};

    const harness::DsParams params = harness::dsDefaults(
        harness::DsKind::BstFg, opts.scale);

    for (unsigned entries : sizes) {
        for (Scheme scheme : schemes) {
            bench.cell("BST_FG/ST_" + std::to_string(entries) + "/"
                           + schemeName(scheme),
                       [&opts, entries, scheme, params] {
                           SystemConfig cfg =
                               opts.makeConfig(scheme, 4, 15);
                           cfg.stEntries = entries;
                           return harness::runDataStructure(
                               cfg, harness::DsKind::BstFg,
                               params.initialSize, params.opsPerCore);
                       });
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Fig. 23 (BST_FG): throughput [ops/ms] per overflow scheme",
        {"ST size", "overflowed", "SynCron", "CentralOvrfl",
         "DistribOvrfl"});

    std::size_t i = 0;
    for (unsigned entries : sizes) {
        std::vector<std::string> row{std::to_string(entries)};
        double overflowFrac = 0;
        std::vector<std::string> cells;
        for (Scheme scheme : schemes) {
            const harness::RunOutput &out = results[i++];
            if (scheme == Scheme::SynCron)
                overflowFrac = out.overflowFrac();
            cells.push_back(fmt(out.opsPerMs(), 1));
        }
        row.push_back(fmtPct(overflowFrac));
        row.insert(row.end(), cells.begin(), cells.end());
        table.addRow(std::move(row));
    }
    table.addNote("paper @64 entries: 30.5% overflowed; integrated "
                  "-3.2% vs CentralOvrfl -12.3% / DistribOvrfl -10.4%");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig23_overflow", run)
