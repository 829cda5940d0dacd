/**
 * @file
 * Reproduces paper Table 1 (substituted): throughput of two
 * coherence-based lock algorithms — TTAS and the Hierarchical Ticket
 * Lock — on a simulated two-socket coherent CPU (two NDP units as NUMA
 * sockets over the MESI model), instead of the paper's real Intel Xeon
 * Gold measurement.
 *
 * Expected shape (the two effects the paper demonstrates):
 *   1. throughput collapses from 1 to 14 threads in one socket;
 *   2. two threads on different sockets are slower than on the same
 *      socket (non-uniform lock-line transfers).
 */

#include <iostream>
#include <vector>

#include "coherence/mesi.hh"
#include "common/units.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "mem/allocator.hh"

using namespace syncron;
using coherence::HierTicketLock;
using coherence::MesiSystem;
using harness::fmt;

namespace {

/**
 * One variant's runtime and acquire count.
 *
 * @param threads    worker count
 * @param sameSocket false: spread threads over both sockets
 */
harness::RunOutput
runLockBench(bool ttas, unsigned threads, bool sameSocket, unsigned ops)
{
    // Two sockets, 14 "hardware threads" each.
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 2, 14);
    cfg.coresPerUnit = 14;
    Machine machine(cfg);

    const unsigned totalCores = 28;
    MesiSystem mesi(machine, totalCores);
    Addr lockAddr = machine.addrSpace().allocIn(0, 64, 64);
    HierTicketLock htl = HierTicketLock::make(machine);

    std::uint64_t acquired = 0;
    std::vector<sim::Process> procs;
    for (unsigned i = 0; i < threads; ++i) {
        // Same socket: cores 0..13 live in unit 0. Different sockets:
        // alternate units (core 14 is the first core of unit 1).
        const unsigned core = sameSocket ? i : (i % 2 == 0 ? i / 2
                                                           : 14 + i / 2);
        if (ttas) {
            procs.push_back(coherence::ttasLockLoop(
                mesi, core, lockAddr, ops, 30, &acquired));
        } else {
            procs.push_back(coherence::hierTicketLockLoop(
                mesi, htl, core, ops, 30, &acquired));
        }
        procs.back().start(machine.eq(0));
    }
    machine.eq(0).run();

    harness::RunOutput out;
    out.time = machine.eq(0).now();
    out.ops = acquired;
    return out;
}

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const unsigned ops =
        static_cast<unsigned>(60 * opts.scale);

    struct Cell
    {
        const char *label;
        unsigned threads;
        bool sameSocket;
    };
    const Cell variants[] = {
        {"1thr", 1, true},
        {"14thr-same-socket", 14, true},
        {"2thr-same-socket", 2, true},
        {"2thr-diff-socket", 2, false},
    };

    harness::TablePrinter table(
        "Table 1 (simulated substitute): coherence-lock throughput "
        "[M ops/s]",
        {"lock", "1 thread", "14 thr same-socket", "2 thr same-socket",
         "2 thr diff-socket"});

    // The MESI model runs on a bare Machine, not an NdpSystem cell, so
    // each run reports its simulated time and acquires as metrics.
    for (bool ttas : {true, false}) {
        std::vector<std::string> row{ttas ? "TTAS" : "Hier. Ticket"};
        for (const Cell &c : variants) {
            const harness::RunOutput r =
                runLockBench(ttas, c.threads, c.sameSocket, ops);
            const std::string cell =
                std::string(ttas ? "TTAS" : "HTL") + "/" + c.label;
            bench.metric("simTicks/" + cell, r.time);
            bench.metric("ops/" + cell, r.ops);
            row.push_back(fmt(static_cast<double>(r.ops)
                                  / ticksToSeconds(r.time) / 1e6,
                              2));
        }
        table.addRow(std::move(row));
    }
    table.addNote("paper (real Xeon): TTAS 8.92 / 2.28 / 9.91 / 4.32; "
                  "HTL 8.06 / 2.91 / 9.01 / 6.79 — shape, not absolute "
                  "values, is the target");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH("tab01_coherence_locks", run)
