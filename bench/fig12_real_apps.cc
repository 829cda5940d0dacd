/**
 * @file
 * Reproduces paper Fig. 12: speedup of Hier / SynCron / Ideal over
 * Central for all 26 real application-input combinations (six graph
 * apps x four graph inputs, plus time-series analysis on two inputs).
 *
 * Expected shape: SynCron ~1.47x over Central and ~1.23x over Hier on
 * average, within ~10% of Ideal; the ts rows show the largest gains
 * (highest synchronization intensity).
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
    // Graphs are already scaled-down proxies; keep default runs brisk.
    const double scale = 0.35 * opts.scale;

    harness::TablePrinter table(
        "Fig. 12: real-application speedup vs Central",
        {"app.input", "Central", "Hier", "SynCron", "Ideal"});

    const auto appInputs = harness::allAppInputs();
    for (const harness::AppInput &ai : appInputs) {
        for (Scheme scheme : harness::kPaperSchemes) {
            bench.cell(ai.app + "." + ai.input + "/" + schemeName(scheme),
                       {opts.makeConfig(scheme, 4, 15),
                        harness::CellSpec::App{ai.app, ai.input, scale}});
        }
    }
    const auto results = bench.run();

    double geoHier = 0, geoSynCron = 0, geoIdeal = 0;
    int n = 0;
    std::size_t i = 0;

    for (const harness::AppInput &ai : appInputs) {
        double time[4];
        for (int s = 0; s < 4; ++s, ++i)
            time[s] = static_cast<double>(results[i].time);
        table.addRow({ai.app + "." + ai.input, fmtX(1.0),
                      fmtX(time[0] / time[1]), fmtX(time[0] / time[2]),
                      fmtX(time[0] / time[3])});
        geoHier += std::log(time[0] / time[1]);
        geoSynCron += std::log(time[0] / time[2]);
        geoIdeal += std::log(time[0] / time[3]);
        ++n;
    }

    table.addNote("paper averages: Hier 1.19x, SynCron 1.47x, "
                  "SynCron within 9.5% of Ideal");
    table.print(std::cout);

    std::cout << "geomean speedup vs Central: Hier "
              << fmtX(std::exp(geoHier / n)) << ", SynCron "
              << fmtX(std::exp(geoSynCron / n)) << ", Ideal "
              << fmtX(std::exp(geoIdeal / n)) << "\n";
    std::cout << "SynCron / Ideal gap: "
              << harness::fmtPct(std::exp(geoIdeal / n)
                                     / std::exp(geoSynCron / n)
                                 - 1.0)
              << " (paper: 9.5%)\n";
    return 0;
}

} // namespace

SYNCRON_BENCH("fig12_real_apps", run)
