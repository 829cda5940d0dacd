/**
 * @file
 * Reproduces paper Fig. 20: SynCron (hierarchical) vs its flat variant
 * on low-contention, synchronization-non-intensive graph workloads with
 * the default 40 ns links. Speedup of SynCron normalized to flat.
 *
 * Expected shape: hierarchical SynCron within ~1-2% of flat (paper:
 * 1.1% worse on average) — the hierarchy costs nothing here and pays
 * off elsewhere (Fig. 21).
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "harness/report.hh"
#include "harness/table.hh"

using namespace syncron;
using harness::fmt;

namespace {

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const double scale = 0.35 * opts.scale;
    const Scheme schemes[] = {Scheme::SynCronFlat, Scheme::SynCron};

    // Fig. 20 is the 24 graph combinations (no ts rows).
    std::vector<harness::AppInput> combos;
    for (const harness::AppInput &ai : harness::allAppInputs()) {
        if (ai.app != "ts")
            combos.push_back(ai);
    }

    harness::SharedInputs inputs;
    inputs.prepare(combos, scale);
    inputs.preparePartitions(combos, 4);

    for (const harness::AppInput &ai : combos) {
        for (Scheme scheme : schemes) {
            bench.cell(ai.app + "." + ai.input + "/" + schemeName(scheme),
                       [&opts, &inputs, ai, scheme] {
                           return harness::runAppInput(
                               opts.makeConfig(scheme, 4, 15), ai,
                               inputs);
                       });
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Fig. 20: SynCron speedup normalized to flat (40 ns links)",
        {"app.input", "SynCron/flat"});

    double geo = 0;
    int n = 0;
    std::size_t i = 0;
    for (const harness::AppInput &ai : combos) {
        const harness::RunOutput &flat = results[i++];
        const harness::RunOutput &hier = results[i++];
        const double ratio = static_cast<double>(flat.time)
                             / static_cast<double>(hier.time);
        table.addRow({ai.app + "." + ai.input, fmt(ratio, 3)});
        geo += std::log(ratio);
        ++n;
    }
    table.addNote("paper: SynCron within 1.1% of flat on average");
    table.print(std::cout);
    std::cout << "geomean SynCron/flat: " << fmt(std::exp(geo / n), 3)
              << "\n";
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig20_flat_low_contention", run)
