/**
 * @file
 * Reproduces paper Fig. 10: speedup of Central / Hier / SynCron / Ideal
 * for each synchronization primitive, sweeping the number of compute
 * instructions between synchronization points. Speedups are normalized
 * to Central at the same interval (the paper's baseline).
 *
 * Expected shape: at small intervals SynCron clearly beats Hier and
 * Central (paper: 3.05x vs Central and 1.40x vs Hier on average at 200
 * instructions) and approaches them as the interval grows.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/table.hh"
#include "workloads/micro/primitives.hh"

using namespace syncron;
using harness::fmtX;
using workloads::Primitive;

namespace {

const std::vector<unsigned> &
intervalsFor(Primitive p)
{
    // The per-primitive x-axes of Fig. 10.
    static const std::vector<unsigned> lock = {50,  100, 200, 400,
                                               1000, 2000, 5000};
    static const std::vector<unsigned> barrier = {20,  50,  100, 200,
                                                  500, 1000, 2000};
    static const std::vector<unsigned> sem = {100,  200,  400, 1000,
                                              2000, 5000, 10000};
    static const std::vector<unsigned> cond = {200,  400,  1000, 2000,
                                               5000, 10000, 50000};
    switch (p) {
      case Primitive::Lock: return lock;
      case Primitive::Barrier: return barrier;
      case Primitive::Semaphore: return sem;
      case Primitive::CondVar: return cond;
    }
    return lock;
}

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const unsigned ops = static_cast<unsigned>(16 * opts.scale);

    const Primitive prims[] = {Primitive::Lock, Primitive::Barrier,
                               Primitive::Semaphore, Primitive::CondVar};

    for (Primitive p : prims) {
        for (unsigned interval : intervalsFor(p)) {
            for (Scheme scheme : harness::kPaperSchemes) {
                bench.cell(std::string(workloads::primitiveName(p)) + "/"
                               + std::to_string(interval) + "/"
                               + schemeName(scheme),
                           {opts.makeConfig(scheme),
                            harness::CellSpec::Primitive{p, interval, ops}});
            }
        }
    }
    const auto results = bench.run();

    double sum200SynCronVsCentral = 0.0, sum200SynCronVsHier = 0.0;
    int count200 = 0;
    std::size_t i = 0; // results arrive in cell order

    for (Primitive p : prims) {
        harness::TablePrinter table(
            std::string("Fig. 10 (") + workloads::primitiveName(p)
                + "): speedup vs Central, 60 cores",
            {"interval", "Central", "Hier", "SynCron", "Ideal"});

        for (unsigned interval : intervalsFor(p)) {
            double time[4];
            for (int s = 0; s < 4; ++s, ++i)
                time[s] = static_cast<double>(results[i].time);
            table.addRow({std::to_string(interval), fmtX(1.0),
                          fmtX(time[0] / time[1]),
                          fmtX(time[0] / time[2]),
                          fmtX(time[0] / time[3])});
            if (interval == 200 && (p == Primitive::Lock)) {
                sum200SynCronVsCentral += time[0] / time[2];
                sum200SynCronVsHier += time[1] / time[2];
                ++count200;
            }
        }
        table.print(std::cout);
    }

    if (count200 > 0) {
        std::cout << "lock @200 instr: SynCron vs Central "
                  << fmtX(sum200SynCronVsCentral / count200)
                  << ", vs Hier "
                  << fmtX(sum200SynCronVsHier / count200)
                  << " (paper: ~3.05x / ~1.40x averaged over all "
                     "primitives)\n";
    }
    return 0;
}

} // namespace

SYNCRON_BENCH("fig10_primitives", run)
