/**
 * @file
 * Reproduces paper Fig. 14: cache / network / memory energy breakdown
 * for Central (C), Hier (H), SynCron (SC), and Ideal (I) on real
 * applications, normalized to Central's total for the same application.
 *
 * Expected shape: SynCron reduces total energy ~2.2x vs Central and
 * ~1.9x vs Hier on average, within ~6% of Ideal; network energy
 * dominates Central's overhead.
 */

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

    const auto combos = harness::sampleAppInputs();
    const char *tag[] = {"C", "H", "SC", "I"};

    for (const harness::AppInput &ai : combos) {
        for (Scheme scheme : harness::kPaperSchemes) {
            bench.cell(ai.app + "." + ai.input + "/" + schemeName(scheme),
                       {opts.makeConfig(scheme, 4, 15),
                        harness::CellSpec::App{ai.app, ai.input, scale}});
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Fig. 14: energy breakdown normalized to Central's total",
        {"app.input", "scheme", "cache", "network", "memory", "total"});

    double sumCentralOverSynCron = 0, sumHierOverSynCron = 0;
    int n = 0;
    std::size_t i = 0;

    for (const harness::AppInput &ai : combos) {
        EnergyBreakdown e[4];
        for (int s = 0; s < 4; ++s, ++i)
            e[s] = results[i].energy;
        const double base = e[0].total();
        for (int s = 0; s < 4; ++s) {
            table.addRow({ai.app + "." + ai.input, tag[s],
                          fmt(e[s].cacheJ / base, 3),
                          fmt(e[s].networkJ / base, 3),
                          fmt(e[s].memoryJ / base, 3),
                          fmt(e[s].total() / base, 3)});
        }
        sumCentralOverSynCron += e[0].total() / e[2].total();
        sumHierOverSynCron += e[1].total() / e[2].total();
        ++n;
    }
    table.addNote("paper: SynCron 2.22x less energy than Central, "
                  "1.94x less than Hier");
    table.print(std::cout);

    std::cout << "energy reduction: Central/SynCron "
              << harness::fmtX(sumCentralOverSynCron / n)
              << ", Hier/SynCron "
              << harness::fmtX(sumHierOverSynCron / n) << "\n";
    return 0;
}

} // namespace

SYNCRON_BENCH("fig14_energy_breakdown", run)
