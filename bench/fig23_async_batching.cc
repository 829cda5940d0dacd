/**
 * @file
 * Async submission/batching sweep: the semaphore fan-out microbenchmark
 * (workloads::SemFanoutWorkload) over batch width x contention on the
 * schemes that opt into SE message coalescing (SynCron, Central) plus
 * the flat baseline running on the default per-op fallback.
 *
 * The point of the figure: with same-SE coalescing, synchronization
 * messages per operation fall as the batch widens — the Fig. 5 header
 * is paid once per batch instead of once per op — while a backend on
 * the default requestBatch() fallback stays flat. The bench exits
 * non-zero unless messages/op is strictly decreasing in batch width on
 * the SynCron backend at low contention (the coalescing guarantee this
 * PR pins down), and unless coalescing actually engaged (batchedOps /
 * messagesSaved counters advance) for every width >= 2.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/report.hh"
#include "harness/table.hh"

using namespace syncron;
using harness::fmt;

namespace {

double
msgsPerOp(const harness::RunOutput &out)
{
    const std::uint64_t msgs = out.stats.syncLocalMsgs
                               + out.stats.syncGlobalMsgs
                               + out.stats.syncOverflowMsgs;
    return out.ops == 0 ? 0.0
                        : static_cast<double>(msgs)
                              / static_cast<double>(out.ops);
}

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();

    const unsigned widths[] = {1, 2, 4, 8};
    const bool contentions[] = {false, true};
    const Scheme schemes[] = {Scheme::SynCron, Scheme::Central,
                              Scheme::SynCronFlat};
    const unsigned rounds =
        std::max(1u, static_cast<unsigned>(12 * opts.scale));

    for (bool contended : contentions) {
        for (unsigned width : widths) {
            for (Scheme scheme : schemes) {
                bench.cell("fanout/" + std::string(contended ? "high" : "low")
                               + "/w" + std::to_string(width) + "/"
                               + schemeName(scheme),
                           {opts.makeConfig(scheme, 4, 15),
                            harness::CellSpec::SemFanout{width, rounds,
                                                         contended}});
            }
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Async batching (sem fan-out): sync messages per op",
        {"contention", "width", "SynCron", "msgs saved", "Central",
         "SynCron-flat"});

    std::size_t i = 0;
    for (bool contended : contentions) {
        const std::string cont = contended ? "high" : "low";
        double prevSyncron = 0.0;
        for (unsigned width : widths) {
            std::vector<std::string> row{cont, std::to_string(width)};
            for (Scheme scheme : schemes) {
                const harness::RunOutput &out = results[i++];
                const double mpo = msgsPerOp(out);
                if (scheme == Scheme::SynCron) {
                    // The tentpole guarantee: messages/op strictly
                    // decreasing with batch width at low contention.
                    if (!contended && width > 1 && mpo >= prevSyncron) {
                        SYNCRON_FATAL(
                            "SynCron messages/op not strictly "
                            "decreasing at low contention: width "
                            << width << " has " << mpo
                            << " msgs/op, previous width had "
                            << prevSyncron);
                    }
                    if (width > 1
                        && (out.stats.batchedOps == 0
                            || out.stats.messagesSaved == 0)) {
                        SYNCRON_FATAL("coalescing never engaged at "
                                      "width "
                                      << width << " (" << cont
                                      << " contention)");
                    }
                    if (!contended)
                        prevSyncron = mpo;
                }
                row.push_back(fmt(mpo, 3));
                if (scheme == Scheme::SynCron) {
                    row.push_back(
                        std::to_string(out.stats.messagesSaved));
                }
            }
            table.addRow(std::move(row));
        }
    }
    table.addNote("SynCron/Central coalesce same-SE batch members into "
                  "one message; SynCron-flat runs the per-op fallback");
    table.addNote("checked: SynCron msgs/op strictly decreasing with "
                  "width at low contention");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH("fig23_async_batching", run)
