/**
 * @file
 * Reproduces paper Fig. 19: effect of better data placement (the METIS
 * 4-way partitioning, here a greedy min-edge-cut partitioner) on
 * pagerank over the four graph inputs. All values are normalized to
 * Central without partitioning; the second table reports SynCron's
 * maximum ST occupancy, which drops with better placement because
 * fewer variables need both a local-SE and a Master-SE entry.
 */

#include <iostream>
#include <vector>

#include "harness/report.hh"
#include "harness/table.hh"

using namespace syncron;
using harness::fmtPct;
using harness::fmtX;

namespace {

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const double scale = 0.35 * opts.scale;
    const char *inputs[] = {"wk", "sl", "sx", "co"};

    for (const char *input : inputs) {
        for (bool metis : {false, true}) {
            for (Scheme scheme : harness::kPaperSchemes) {
                bench.cell(std::string("pr.") + input + "/"
                               + (metis ? "greedy" : "range") + "/"
                               + schemeName(scheme),
                           {opts.makeConfig(scheme, 4, 15),
                            harness::CellSpec::App{"pr", input, scale,
                                                   metis}});
            }
        }
    }
    const auto results = bench.run();

    harness::TablePrinter speed(
        "Fig. 19: pr speedup vs Central/no-partitioning",
        {"input", "partition", "Central", "Hier", "SynCron", "Ideal"});
    harness::TablePrinter occ(
        "Fig. 19 (bottom): SynCron max ST occupancy",
        {"input", "no partition", "partitioned"});

    std::size_t i = 0;
    for (const char *input : inputs) {
        double base = 0;
        double occNo = 0, occYes = 0;
        for (bool metis : {false, true}) {
            double time[4];
            for (int s = 0; s < 4; ++s, ++i) {
                time[s] = static_cast<double>(results[i].time);
                if (harness::kPaperSchemes[s] == Scheme::SynCron)
                    (metis ? occYes : occNo) = results[i].stMaxFrac;
            }
            if (!metis)
                base = time[0];
            speed.addRow({input, metis ? "greedy(min-cut)" : "range",
                          fmtX(base / time[0]), fmtX(base / time[1]),
                          fmtX(base / time[2]), fmtX(base / time[3])});
        }
        occ.addRow({input, fmtPct(occNo), fmtPct(occYes)});
    }
    speed.addNote("paper: with METIS all schemes improve ~1.47x; "
                  "SynCron stays best");
    speed.print(std::cout);
    occ.addNote("paper: max ST occupancy drops (e.g. pr.wk 62% -> 39%)");
    occ.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH("fig19_data_placement", run)
