/**
 * @file
 * Reproduces paper Table 7: maximum and average Synchronization Table
 * occupancy of SynCron across all real application-input combinations.
 *
 * Expected shape: graph applications occupy few entries on average
 * (paper: 1.2-6.1%) with max below ~63%; time-series analysis reaches
 * ~44% average / ~84-89% max without ever overflowing the 64-entry ST.
 */

#include <iostream>
#include <vector>

#include "harness/report.hh"
#include "harness/table.hh"

using namespace syncron;
using harness::fmtPct;

namespace {

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const double scale = 0.35 * opts.scale;
    const auto appInputs = harness::allAppInputs();
    for (const harness::AppInput &ai : appInputs) {
        bench.cell(ai.app + "." + ai.input,
                   {opts.makeConfig(Scheme::SynCron, 4, 15),
                    harness::CellSpec::App{ai.app, ai.input, scale}});
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Table 7: ST occupancy (SynCron, 64-entry STs)",
        {"app.input", "max", "avg", "overflowed"});

    std::size_t i = 0;
    for (const harness::AppInput &ai : appInputs) {
        const harness::RunOutput &out = results[i++];
        table.addRow({ai.app + "." + ai.input, fmtPct(out.stMaxFrac),
                      fmtPct(out.stAvgFrac, 2),
                      fmtPct(out.overflowFrac())});
    }
    table.addNote("paper: graphs avg 1.2-6.1% / max <= 63%; "
                  "ts avg ~44% / max 84-89%; no overflow at 64 entries");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH("tab07_st_occupancy", run)
