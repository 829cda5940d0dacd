/**
 * @file
 * Reproduces paper Fig. 17: slowdown (vs Ideal at the same latency) of
 * pagerank on the wk proxy as the inter-unit link transfer latency grows
 * from 40 ns to 500 ns.
 *
 * Expected shape (paper numbers at 40/100/200/500 ns):
 *   SynCron 1.07/1.11/1.15/1.17, Hier 1.29/1.33/1.36/1.37,
 *   Central 1.61/1.87/2.23/2.67.
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
    const unsigned latenciesNs[] = {40, 100, 200, 500};
    const Scheme schemes[] = {Scheme::Ideal, Scheme::SynCron,
                              Scheme::Hier, Scheme::Central};

    harness::SharedInputs inputs;
    inputs.prepareGraph("wk", scale);
    inputs.preparePartition("wk", 4);

    for (unsigned ns : latenciesNs) {
        for (Scheme scheme : schemes) {
            bench.cell("pr.wk/" + std::to_string(ns) + "ns/"
                           + schemeName(scheme),
                       [&opts, &inputs, ns, scheme] {
                           SystemConfig cfg =
                               opts.makeConfig(scheme, 4, 15);
                           cfg.link.flightTicks =
                               static_cast<Tick>(ns) * kTicksPerNs;
                           return harness::runGraph(
                               cfg, inputs.graph("wk"),
                               workloads::GraphApp::Pr,
                               inputs.partition("wk", 4));
                       });
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Fig. 17 (pr.wk): slowdown vs Ideal at the same link latency",
        {"latency[ns]", "Ideal", "SynCron", "Hier", "Central"});

    std::size_t i = 0;
    for (unsigned ns : latenciesNs) {
        double time[4];
        for (int s = 0; s < 4; ++s, ++i)
            time[s] = static_cast<double>(results[i].time);
        table.addRow({std::to_string(ns), fmt(1.0, 2),
                      fmt(time[1] / time[0], 2),
                      fmt(time[2] / time[0], 2),
                      fmt(time[3] / time[0], 2)});
    }
    table.addNote("paper @500ns: SynCron 1.17, Hier 1.37, Central 2.67");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig17_low_contention_links", run)
