/**
 * @file
 * Reproduces paper Fig. 11: throughput (operations per millisecond of
 * simulated time) of the nine lock-based data structures, varying the
 * core count in steps of 15 by adding NDP units (15/30/45/60), for
 * Central / Hier / SynCron / Ideal.
 *
 * Expected shape: high-contention structures (stack, queue, array map,
 * priority queue) favor the hierarchical schemes, with SynCron above
 * Hier; BST_Drachsler is insensitive to the scheme.
 */

#include <iostream>
#include <string>
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
    const Scheme schemes[] = {Scheme::Central, Scheme::Hier,
                              Scheme::SynCron, Scheme::Ideal};

    for (harness::DsKind kind : harness::kAllDsKinds) {
        for (unsigned units = 1; units <= 4; ++units) {
            for (Scheme scheme : schemes) {
                bench.cell(std::string(harness::dsName(kind)) + "/"
                               + std::to_string(units * 15) + "cores/"
                               + schemeName(scheme),
                           [&opts, kind, units, scheme] {
                               const harness::DsParams params =
                                   harness::dsDefaults(kind, opts.scale);
                               return harness::runDataStructure(
                                   opts.makeConfig(scheme, units, 15),
                                   kind, params.initialSize,
                                   params.opsPerCore);
                           });
            }
        }
    }
    const auto results = bench.run();

    std::size_t i = 0;
    for (harness::DsKind kind : harness::kAllDsKinds) {
        const harness::DsParams params =
            harness::dsDefaults(kind, opts.scale);
        harness::TablePrinter table(
            std::string("Fig. 11 (") + harness::dsName(kind)
                + "): throughput [ops/ms], size "
                + std::to_string(params.initialSize),
            {"cores", "Central", "Hier", "SynCron", "Ideal"});

        for (unsigned units = 1; units <= 4; ++units) {
            std::vector<std::string> row{
                std::to_string(units * 15)};
            for (std::size_t s = 0; s < std::size(schemes); ++s)
                row.push_back(fmt(results[i++].opsPerMs(), 1));
            table.addRow(std::move(row));
        }
        table.print(std::cout);
    }
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig11_data_structures", run)
