/**
 * @file
 * Reproduces paper Fig. 15: data movement (bytes transferred), split
 * into traffic inside NDP units and across NDP units, for C/H/SC/I on
 * real applications, normalized to Central's total.
 *
 * Expected shape: SynCron moves ~2x less data than Central and Hier on
 * average; Central is dominated by cross-unit traffic.
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

    const std::vector<harness::AppInput> combos = {
        {"bfs", "sl"}, {"cc", "sx"},  {"sssp", "co"}, {"pr", "wk"},
        {"tf", "sl"},  {"tc", "sx"},  {"ts", "air"},  {"ts", "pow"},
    };
    const Scheme schemes[] = {Scheme::Central, Scheme::Hier,
                              Scheme::SynCron, Scheme::Ideal};
    const char *tag[] = {"C", "H", "SC", "I"};
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
        "Fig. 15: data movement normalized to Central's total",
        {"app.input", "scheme", "inside units", "across units",
         "total"});

    double sumCentralOverSynCron = 0;
    int n = 0;
    std::size_t i = 0;
    for (const harness::AppInput &ai : combos) {
        double inside[4], across[4];
        for (int s = 0; s < 4; ++s, ++i) {
            inside[s] =
                static_cast<double>(results[i].stats.bytesInsideUnits);
            across[s] =
                static_cast<double>(results[i].stats.bytesAcrossUnits);
        }
        const double base = inside[0] + across[0];
        for (int s = 0; s < 4; ++s) {
            table.addRow({ai.app + "." + ai.input, tag[s],
                          fmt(inside[s] / base, 3),
                          fmt(across[s] / base, 3),
                          fmt((inside[s] + across[s]) / base, 3)});
        }
        sumCentralOverSynCron += base / (inside[2] + across[2]);
        ++n;
    }
    table.addNote("paper: SynCron 2.08x less movement than Central, "
                  "2.04x less than Hier, 13.8% more than Ideal");
    table.print(std::cout);
    std::cout << "movement reduction Central/SynCron: "
              << harness::fmtX(sumCentralOverSynCron / n) << "\n";
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig15_data_movement", run)
