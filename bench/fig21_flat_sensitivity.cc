/**
 * @file
 * Reproduces paper Fig. 21: SynCron vs its flat variant while sweeping
 * the inter-unit link latency (40-500 ns).
 *   (a) low contention + synchronization-intensive: time series;
 *   (b) high contention: the queue with 30 and 60 cores.
 *
 * Expected shape: (a) flat slightly ahead (paper: SynCron 3.6-7.3%
 * worse); (b) SynCron ahead, growing with latency and core count
 * (paper: up to 2.14x at 500 ns / 60 cores).
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
    const unsigned latenciesNs[] = {40, 100, 200, 500};
    const Scheme schemes[] = {Scheme::SynCronFlat, Scheme::SynCron};
    const char *inputs[] = {"air", "pow"};
    const unsigned unitCounts[] = {2, 4};

    harness::SharedInputs shared;
    for (const char *input : inputs)
        shared.prepareSeries(input, 0.35 * opts.scale);

    // (a) time series cells, then (b) queue cells, flat before hier.
    for (const char *input : inputs) {
        for (unsigned ns : latenciesNs) {
            for (Scheme scheme : schemes) {
                bench.cell(std::string("ts.") + input + "/"
                               + std::to_string(ns) + "ns/"
                               + schemeName(scheme),
                           [&opts, &shared, input, ns, scheme] {
                               SystemConfig cfg =
                                   opts.makeConfig(scheme, 4, 15);
                               cfg.link.flightTicks =
                                   static_cast<Tick>(ns) * kTicksPerNs;
                               return harness::runTimeSeries(
                                   cfg, shared.series(input));
                           });
            }
        }
    }
    for (unsigned units : unitCounts) {
        for (unsigned ns : latenciesNs) {
            for (Scheme scheme : schemes) {
                bench.cell("queue/" + std::to_string(units * 15)
                               + "cores/" + std::to_string(ns) + "ns/"
                               + schemeName(scheme),
                           [&opts, units, ns, scheme] {
                               const harness::DsParams params =
                                   harness::dsDefaults(
                                       harness::DsKind::Queue,
                                       opts.scale);
                               SystemConfig cfg =
                                   opts.makeConfig(scheme, units, 15);
                               cfg.link.flightTicks =
                                   static_cast<Tick>(ns) * kTicksPerNs;
                               return harness::runDataStructure(
                                   cfg, harness::DsKind::Queue,
                                   params.initialSize,
                                   params.opsPerCore);
                           });
            }
        }
    }
    const auto results = bench.run();

    std::size_t i = 0;
    harness::TablePrinter a(
        "Fig. 21a (ts): SynCron speedup normalized to flat",
        {"input", "40ns", "100ns", "200ns", "500ns"});
    for (const char *input : inputs) {
        std::vector<std::string> row{input};
        for (std::size_t n = 0; n < std::size(latenciesNs); ++n) {
            const harness::RunOutput &flat = results[i++];
            const harness::RunOutput &hier = results[i++];
            row.push_back(fmt(static_cast<double>(flat.time)
                                  / static_cast<double>(hier.time),
                              3));
        }
        a.addRow(std::move(row));
    }
    a.addNote("paper: SynCron 7.3% worse at 40ns, 3.6% worse at 500ns");
    a.print(std::cout);

    harness::TablePrinter b(
        "Fig. 21b (queue): SynCron speedup normalized to flat",
        {"cores", "40ns", "100ns", "200ns", "500ns"});
    for (unsigned units : unitCounts) {
        std::vector<std::string> row{std::to_string(units * 15)};
        for (std::size_t n = 0; n < std::size(latenciesNs); ++n) {
            const harness::RunOutput &flat = results[i++];
            const harness::RunOutput &hier = results[i++];
            row.push_back(fmt(static_cast<double>(flat.time)
                                  / static_cast<double>(hier.time),
                              2));
        }
        b.addRow(std::move(row));
    }
    b.addNote("paper: 30 cores 1.23x-1.76x; 60 cores up to 2.14x at "
              "500ns");
    b.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig21_flat_sensitivity", run)
