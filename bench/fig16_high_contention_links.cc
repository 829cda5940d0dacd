/**
 * @file
 * Reproduces paper Fig. 16: throughput of the stack and the priority
 * queue (high contention) as the inter-unit link transfer latency grows
 * from 0.04 us to 9 us.
 *
 * Expected shape: Central collapses as the links slow down; SynCron and
 * Hier track Ideal (local messages dominate), with SynCron slightly
 * ahead of Hier (paper: 1.06x / 1.04x).
 */

#include <iostream>
#include <vector>

#include "common/units.hh"
#include "harness/report.hh"
#include "harness/table.hh"

using namespace syncron;
using harness::fmt;

namespace {

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const double latenciesUs[] = {0.04, 0.1, 0.2, 0.5, 1, 2, 4.5, 9};
    const harness::DsKind kinds[] = {harness::DsKind::Stack,
                                     harness::DsKind::PriorityQueue};

    for (harness::DsKind kind : kinds) {
        const harness::DsParams p = harness::dsDefaults(kind, opts.scale);
        for (double us : latenciesUs) {
            for (Scheme scheme : harness::kPaperSchemes) {
                SystemConfig cfg = opts.makeConfig(scheme, 4, 15);
                cfg.link.flightTicks = static_cast<Tick>(us * kTicksPerUs);
                bench.cell(std::string(harness::dsName(kind)) + "/"
                               + fmt(us, 2) + "us/" + schemeName(scheme),
                           {cfg, harness::CellSpec::Ds{kind, p.initialSize,
                                                       p.opsPerCore}});
            }
        }
    }
    const auto results = bench.run();

    std::size_t i = 0;
    for (harness::DsKind kind : kinds) {
        harness::TablePrinter table(
            std::string("Fig. 16 (") + harness::dsName(kind)
                + "): throughput [ops/ms] vs link transfer latency",
            {"latency[us]", "Central", "Hier", "SynCron", "Ideal"});

        for (double us : latenciesUs) {
            std::vector<std::string> row{fmt(us, 2)};
            for (std::size_t s = 0; s < std::size(harness::kPaperSchemes); ++s)
                row.push_back(fmt(results[i++].opsPerMs(), 1));
            table.addRow(std::move(row));
        }
        table.addNote("paper: SynCron best hides slow links; Central "
                      "collapses");
        table.print(std::cout);
    }
    return 0;
}

} // namespace

SYNCRON_BENCH("fig16_high_contention_links", run)
