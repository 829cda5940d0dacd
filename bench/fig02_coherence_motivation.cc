/**
 * @file
 * Reproduces paper Fig. 2: slowdown of a coarse-lock-protected stack
 * when the lock is a coherence-based TTAS lock (mesi-lock) over an ideal
 * zero-cost lock (ideal-lock), (a) scaling the cores inside one NDP
 * unit from 15 to 60 and (b) spreading 60 cores over 1-4 NDP units.
 *
 * This is the motivation experiment: a hypothetical MESI directory
 * protocol is layered over the NDP fabric (src/coherence). The stack's
 * data accesses are identical coherent accesses in both runs; only the
 * lock differs.
 *
 * Expected shape: ~2x slowdown at 60 cores in one unit, growing to
 * ~2.7x at 4 units (non-uniform lock-line transfers).
 */

#include <deque>
#include <iostream>
#include <vector>

#include "coherence/mesi.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "mem/allocator.hh"

using namespace syncron;
using coherence::MesiSystem;
using harness::fmt;

namespace {

/** Zero-cost lock: host FIFO of parked coroutines (the ideal-lock). */
struct IdealLock
{
    bool held = false;
    std::deque<sim::Gate *> waiters;
};

struct StackState
{
    Addr top;
    Addr nodes;
    std::uint64_t sp = 0; ///< host shadow of the stack pointer
};

sim::Process
stackWorker(MesiSystem &mesi, StackState &stack, unsigned core,
            unsigned ops, bool useMesiLock, Addr lockAddr,
            IdealLock &ideal, std::uint64_t *pushes)
{
    sim::EventQueue &eq = mesi.machineEq();
    for (unsigned i = 0; i < ops; ++i) {
        // -- Acquire
        if (useMesiLock) {
            Tick backoff = kCoreClock.cycles(32);
            for (;;) {
                Tick t = mesi.read(core, lockAddr, eq.now());
                co_await sim::Delay{eq, t - eq.now()};
                if (mesi.value(lockAddr) == 0) {
                    auto [done, old] =
                        mesi.rmwSwap(core, lockAddr, 1, eq.now());
                    co_await sim::Delay{eq, done - eq.now()};
                    if (old == 0)
                        break;
                }
                co_await sim::Delay{eq, backoff};
                backoff = std::min(backoff * 2, kCoreClock.cycles(2048));
            }
        } else {
            if (ideal.held) {
                sim::Gate gate(eq);
                ideal.waiters.push_back(&gate);
                co_await gate;
            }
            ideal.held = true;
        }

        // -- Critical section: push (same coherent accesses both ways)
        Tick t = mesi.read(core, stack.top, eq.now());
        co_await sim::Delay{eq, t - eq.now()};
        const Addr node = stack.nodes + (stack.sp % 4096) * 16;
        ++stack.sp;
        t = mesi.write(core, node, eq.now());
        co_await sim::Delay{eq, t - eq.now()};
        t = mesi.write(core, stack.top, eq.now());
        co_await sim::Delay{eq, t - eq.now()};
        ++*pushes;

        // -- Release
        if (useMesiLock) {
            const Tick rel =
                mesi.rmwSwap(core, lockAddr, 0, eq.now()).first;
            co_await sim::Delay{eq, rel - eq.now()};
        } else {
            ideal.held = false;
            if (!ideal.waiters.empty()) {
                sim::Gate *next = ideal.waiters.front();
                ideal.waiters.pop_front();
                ideal.held = true;
                next->open(0, 0);
            }
        }
        co_await sim::Delay{eq, kCoreClock.cycles(40)};
    }
}

/** One configuration's runtime and push count with the chosen lock. */
harness::RunOutput
runStack(unsigned numUnits, unsigned coresPerUnit, unsigned totalCores,
         unsigned ops, bool useMesiLock)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Ideal;
    cfg.numUnits = numUnits;
    cfg.coresPerUnit = coresPerUnit; // up to 60 in-unit cores (Fig. 2a)
    cfg.clientCoresPerUnit = coresPerUnit;
    cfg.validate();
    Machine machine(cfg);
    MesiSystem mesi(machine, totalCores);

    StackState stack;
    stack.top = machine.addrSpace().allocIn(0, 64, 64);
    stack.nodes = machine.addrSpace().allocIn(0, 4096 * 16, 64);
    Addr lockAddr = machine.addrSpace().allocIn(0, 64, 64);
    IdealLock ideal;
    std::uint64_t pushes = 0;

    std::vector<sim::Process> procs;
    for (unsigned c = 0; c < totalCores; ++c) {
        procs.push_back(stackWorker(mesi, stack, c, ops, useMesiLock,
                                    lockAddr, ideal, &pushes));
        procs.back().start(machine.eq(0));
    }
    machine.eq(0).run();
    for (const auto &p : procs) {
        if (!p.done())
            SYNCRON_FATAL("fig02: worker deadlocked");
    }
    harness::RunOutput out;
    out.time = machine.eq(0).now();
    out.ops = pushes;
    return out;
}

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const unsigned ops =
        static_cast<unsigned>(12 * opts.scale);
    const unsigned coreCounts[] = {15, 30, 45, 60};
    const unsigned unitCounts[] = {1, 2, 3, 4};

    // (a) cells (ideal, mesi per core count), then (b) cells.
    for (unsigned cores : coreCounts) {
        for (bool mesiLock : {false, true}) {
            bench.cell(std::to_string(cores) + "cores/"
                           + (mesiLock ? "mesi-lock" : "ideal-lock"),
                       [cores, ops, mesiLock] {
                           return runStack(1, cores, cores, ops,
                                           mesiLock);
                       });
        }
    }
    for (unsigned units : unitCounts) {
        for (bool mesiLock : {false, true}) {
            bench.cell(std::to_string(units) + "units/"
                           + (mesiLock ? "mesi-lock" : "ideal-lock"),
                       [units, ops, mesiLock] {
                           return runStack(units, 60 / units, 60, ops,
                                           mesiLock);
                       });
        }
    }
    const auto results = bench.run();

    std::size_t i = 0;
    harness::TablePrinter a(
        "Fig. 2a: stack slowdown, mesi-lock vs ideal-lock, one NDP unit",
        {"cores", "ideal-lock", "mesi-lock slowdown"});
    for (unsigned cores : coreCounts) {
        const harness::RunOutput &ideal = results[i++];
        const harness::RunOutput &mesi = results[i++];
        a.addRow({std::to_string(cores), fmt(1.0, 2),
                  fmt(static_cast<double>(mesi.time)
                          / static_cast<double>(ideal.time),
                      2)});
    }
    a.addNote("paper: 2.03x slowdown at 60 cores");
    a.print(std::cout);

    harness::TablePrinter b(
        "Fig. 2b: stack slowdown at 60 cores, varying NDP units",
        {"units", "ideal-lock", "mesi-lock slowdown"});
    for (unsigned units : unitCounts) {
        const harness::RunOutput &ideal = results[i++];
        const harness::RunOutput &mesi = results[i++];
        b.addRow({std::to_string(units), fmt(1.0, 2),
                  fmt(static_cast<double>(mesi.time)
                          / static_cast<double>(ideal.time),
                      2)});
    }
    b.addNote("paper: slowdown grows to 2.66x at 4 units");
    b.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig02_coherence_motivation", run)
