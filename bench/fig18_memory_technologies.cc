/**
 * @file
 * Reproduces paper Fig. 18: speedup over Central (per memory) for
 * cc.wk / pr.wk / ts.pow on the three memory technologies — HBM (2.5D),
 * HMC (3D), DDR4 (2D).
 *
 * Expected shape: SynCron's improvement over Hier grows as memory
 * latency grows (DDR4 > HMC > HBM), because direct ST buffering avoids
 * memory accesses entirely (paper ts.pow: 1.41x on HBM vs 2.49x on
 * DDR4).
 */

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

    const std::vector<harness::AppInput> combos = {
        {"cc", "wk"}, {"pr", "wk"}, {"ts", "pow"}};
    const mem::DramTech techs[] = {mem::DramTech::Hbm,
                                   mem::DramTech::Hmc,
                                   mem::DramTech::Ddr4};

    for (const harness::AppInput &ai : combos) {
        for (mem::DramTech tech : techs) {
            for (Scheme scheme : harness::kPaperSchemes) {
                SystemConfig cfg = opts.makeConfig(scheme, 4, 15);
                cfg.dramTech = tech;
                bench.cell(ai.app + "." + ai.input + "/"
                               + mem::dramTechName(tech) + "/"
                               + schemeName(scheme),
                           {cfg, harness::CellSpec::App{ai.app, ai.input,
                                                        scale}});
            }
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Fig. 18: speedup vs Central per memory technology",
        {"app.input", "memory", "Hier", "SynCron", "Ideal",
         "SynCron/Hier"});

    std::size_t i = 0;
    for (const harness::AppInput &ai : combos) {
        for (mem::DramTech tech : techs) {
            double time[4];
            for (int s = 0; s < 4; ++s, ++i)
                time[s] = static_cast<double>(results[i].time);
            table.addRow({ai.app + "." + ai.input,
                          mem::dramTechName(tech),
                          fmtX(time[0] / time[1]),
                          fmtX(time[0] / time[2]),
                          fmtX(time[0] / time[3]),
                          fmtX(time[1] / time[2])});
        }
    }
    table.addNote("paper ts.pow SynCron/Hier: HBM 1.41x, DDR4 2.49x — "
                  "the gap widens with slower memory");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH("fig18_memory_technologies", run)
