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

    for (harness::DsKind kind : harness::kAllDsKinds) {
        const harness::DsParams p = harness::dsDefaults(kind, opts.scale);
        for (unsigned units = 1; units <= 4; ++units) {
            for (Scheme scheme : harness::kPaperSchemes) {
                bench.cell(std::string(harness::dsName(kind)) + "/"
                               + std::to_string(units * 15) + "cores/"
                               + schemeName(scheme),
                           {opts.makeConfig(scheme, units, 15),
                            harness::CellSpec::Ds{kind, p.initialSize,
                                                  p.opsPerCore}});
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
            for (std::size_t s = 0; s < std::size(harness::kPaperSchemes); ++s)
                row.push_back(fmt(results[i++].opsPerMs(), 1));
            table.addRow(std::move(row));
        }
        table.print(std::cout);
    }
    return 0;
}

} // namespace

SYNCRON_BENCH("fig11_data_structures", run)
