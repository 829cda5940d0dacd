/**
 * @file
 * Reproduces paper Fig. 22: sensitivity to the Synchronization Table
 * size (8..64 entries) for cc.wk, pr.wk, ts.air, ts.pow. Slowdown is
 * normalized to the 64-entry ST; the overflow column is the percentage
 * of requests serviced via main memory.
 *
 * Expected shape: the 64-entry ST never overflows; graph apps barely
 * react to smaller STs; ts overflows heavily below 48 entries and slows
 * down gracefully (integrated overflow).
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
    const double scale = 0.35 * opts.scale;
    const unsigned sizes[] = {64, 48, 32, 16, 8};
    const std::vector<harness::AppInput> combos = {
        {"cc", "wk"}, {"pr", "wk"}, {"ts", "air"}, {"ts", "pow"}};
    harness::SharedInputs inputs;
    inputs.prepare(combos, scale);
    inputs.preparePartitions(combos, 4);

    for (const harness::AppInput &ai : combos) {
        for (unsigned entries : sizes) {
            bench.cell(ai.app + "." + ai.input + "/ST_"
                           + std::to_string(entries),
                       [&opts, &inputs, ai, entries] {
                           SystemConfig cfg =
                               opts.makeConfig(Scheme::SynCron, 4, 15);
                           cfg.stEntries = entries;
                           return harness::runAppInput(cfg, ai, inputs);
                       });
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Fig. 22: slowdown vs 64-entry ST (overflowed requests in "
        "parentheses)",
        {"app.input", "ST_64", "ST_48", "ST_32", "ST_16", "ST_8"});

    std::size_t i = 0;
    for (const harness::AppInput &ai : combos) {
        std::vector<std::string> row{ai.app + "." + ai.input};
        double base = 0;
        for (unsigned entries : sizes) {
            const harness::RunOutput &out = results[i++];
            if (entries == 64)
                base = static_cast<double>(out.time);
            row.push_back(fmt(static_cast<double>(out.time) / base, 2)
                          + " (" + fmtPct(out.overflowFrac()) + ")");
        }
        table.addRow(std::move(row));
    }
    table.addNote("paper: 64-entry ST never overflows; ts.pow reaches "
                  "83.7% overflowed requests at ST_8");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig22_st_size", run)
