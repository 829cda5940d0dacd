/**
 * @file
 * Reproduces paper Fig. 13: scalability of SynCron on real applications
 * from 1 to 4 NDP units (15 to 60 cores). Speedup is normalized to the
 * 1-unit run of the same application.
 *
 * Expected shape: average scaling ~2x at 4 units (paper: 2.03x average,
 * up to 3.03x, at least 1.32x).
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "harness/report.hh"
#include "harness/table.hh"

using namespace syncron;
using harness::fmtX;

namespace {

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const double scale = 0.35 * opts.scale;

    const auto combos = harness::sampleAppInputs();
    for (const harness::AppInput &ai : combos) {
        for (unsigned units = 1; units <= 4; ++units) {
            bench.cell(ai.app + "." + ai.input + "/"
                           + std::to_string(units * 15) + "cores",
                       {opts.makeConfig(Scheme::SynCron, units, 15),
                        harness::CellSpec::App{ai.app, ai.input, scale}});
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Fig. 13: SynCron scalability (speedup vs 1 NDP unit)",
        {"app.input", "1 unit", "2 units", "3 units", "4 units"});

    double geo4 = 0;
    int n = 0;
    std::size_t i = 0;
    for (const harness::AppInput &ai : combos) {
        double time[4];
        for (unsigned units = 1; units <= 4; ++units, ++i)
            time[units - 1] = static_cast<double>(results[i].time);
        table.addRow({ai.app + "." + ai.input, fmtX(1.0),
                      fmtX(time[0] / time[1]), fmtX(time[0] / time[2]),
                      fmtX(time[0] / time[3])});
        geo4 += std::log(time[0] / time[3]);
        ++n;
    }
    table.addNote("paper: 2.03x average scaling at 4 units");
    table.print(std::cout);
    std::cout << "geomean 4-unit scaling: " << fmtX(std::exp(geo4 / n))
              << "\n";
    return 0;
}

} // namespace

SYNCRON_BENCH("fig13_scalability", run)
