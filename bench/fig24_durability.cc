/**
 * @file
 * Durability sweep: the replication workload (per-partition ordered
 * apply) over persist granularity — no durability, eager per-op
 * persistence, and epoch-batched WAL flushes at two batch sizes — on
 * the SE-based backend (SynCron) and the server-core baseline
 * (Central).
 *
 * The point of the figure: eager persistence charges one modeled PM
 * write per acquire-type operation on the request path, so its
 * throughput overhead vs the no-durability baseline bounds the cost of
 * crash consistency; epoch batching amortizes the WAL writes and the
 * overhead shrinks with the batch. The JSON record carries the
 * overhead percentages as explicit metrics plus per-cell PM write
 * counters, feeding tools/perf_trend.py.
 *
 * With --crash-sweep=<n> the bench instead runs the crash-injection
 * sweep (harness::runCrashSweep) at every nth sync-op boundary on both
 * backends and exits non-zero unless every injection point recovers to
 * the clean run's final state.
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "durability/image.hh"
#include "durability/manager.hh"
#include "durability/pm_model.hh"
#include "durability/recovery.hh"
#include "harness/crash_sweep.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "system/system.hh"
#include "workloads/replication/replication.hh"

using namespace syncron;
using harness::fmt;

namespace {

/** One persist-granularity grid column. */
struct ModeSpec
{
    const char *label;
    durability::PersistMode mode;
    unsigned epochOps;
};

constexpr ModeSpec kModes[] = {
    {"off", durability::PersistMode::Off, 64},
    {"eager", durability::PersistMode::Eager, 64},
    {"epoch:8", durability::PersistMode::Epoch, 8},
    {"epoch:64", durability::PersistMode::Epoch, 64},
};

workloads::ReplicationParams
benchParams(double scale)
{
    workloads::ReplicationParams p;
    p.epochs = 3;
    // Enough work per grid cell that host-side events/sec is a stable
    // perf_trend signal (tiny cells flap far beyond the CI threshold).
    p.opsPerEpoch =
        std::max(2u, static_cast<unsigned>(200 * scale));
    return p;
}

/**
 * --crash-at: one deterministic crash on SynCron. Runs the clean
 * reference for its WAL, reruns with the injected crash, then
 * recovers the persisted image after a round trip through its
 * `SYNCDUR` container and reports the rollback cut. A
 * crashed run has no finalized stats by design, so this never goes
 * through the throughput grid.
 */
int
runCrashOnce(const harness::BenchOptions &opts)
{
    const workloads::ReplicationParams params =
        benchParams(opts.scale);
    SystemConfig cfg = opts.makeConfig(Scheme::SynCron, 4, 15);
    if (cfg.persistMode == durability::PersistMode::Off)
        cfg.persistMode = durability::PersistMode::Eager;

    cfg.crashAtTick = 0;
    trace::Trace refWal;
    {
        NdpSystem ref(cfg);
        workloads::ReplicationWorkload w(ref, params);
        ref.run();
        refWal = ref.durability()->walTrace();
    }

    cfg.crashAtTick = opts.crashAt;
    NdpSystem sys(cfg);
    workloads::ReplicationWorkload w(sys, params);
    sys.run();
    if (!sys.crashed()) {
        std::cout << "crash-at " << opts.crashAt
                  << ": the run finished first (" << refWal.records.size()
                  << " ops); nothing to recover\n";
        return 0;
    }

    std::stringstream ss;
    durability::writeImage(ss, sys.durability()->snapshot());
    const durability::PersistedImage img = durability::readImage(ss);
    const durability::RecoveryResult rr =
        durability::RecoveryEngine(img, refWal).recover();
    std::cout << "crash-at " << opts.crashAt << " ["
              << durability::persistModeName(cfg.persistMode)
              << "]: " << img.durable() << " durable of "
              << refWal.records.size() << " ops, rollback cut undoes "
              << rr.rolledBack << ", resume replays "
              << rr.resume.records.size() << ": "
              << (rr.violations.empty() ? "recoverable" : "FAIL")
              << "\n";
    for (const std::string &v : rr.violations)
        std::cerr << "  " << v << "\n";
    if (!rr.violations.empty())
        SYNCRON_FATAL("recovery failed at tick " << opts.crashAt);
    return 0;
}

int
runSweepMode(const harness::BenchOptions &opts)
{
    workloads::ReplicationParams params = benchParams(1.0);
    params.epochs = 2;
    params.opsPerEpoch = 2;
    for (Scheme scheme : {Scheme::SynCron, Scheme::Central}) {
        SystemConfig cfg = opts.makeConfig(scheme, 2, 3);
        cfg.persistMode = durability::PersistMode::Eager;
        const harness::CrashSweepResult r =
            harness::runCrashSweep(cfg, params, opts.crashSweepEvery);
        std::cout << "crash sweep [" << schemeName(scheme) << "]: "
                  << r.injections << " injections over " << r.boundaries
                  << " boundaries (" << r.referenceRecords
                  << " WAL records, " << r.totalRolledBack
                  << " rolled back total): "
                  << (r.passed() ? "pass" : "FAIL") << "\n";
        if (!r.passed()) {
            for (const std::string &v : r.violations)
                std::cerr << "  " << v << "\n";
            SYNCRON_FATAL("crash-injection sweep failed on "
                          << schemeName(scheme) << " ("
                          << r.violations.size() << " violations)");
        }
    }
    return 0;
}

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    if (opts.crashSweepEvery > 0)
        return runSweepMode(opts);
    if (opts.crashAt != 0)
        return runCrashOnce(opts);

    const Scheme schemes[] = {Scheme::SynCron, Scheme::Central};
    const workloads::ReplicationParams params =
        benchParams(opts.scale);

    for (Scheme scheme : schemes) {
        for (const ModeSpec &m : kModes) {
            bench.cell(std::string("replication/") + schemeName(scheme)
                           + "/" + m.label,
                       [&opts, scheme, m, params] {
                           SystemConfig cfg =
                               opts.makeConfig(scheme, 4, 15);
                           cfg.persistMode = m.mode;
                           cfg.persistEpochOps = m.epochOps;
                           return harness::runReplication(cfg, params);
                       });
        }
    }
    const auto results = bench.run();

    harness::TablePrinter table(
        "Durability (replication): ops/ms by persist granularity",
        {"scheme", "mode", "ops/ms", "overhead%", "pmWrites",
         "pmFlushes"});

    std::size_t i = 0;
    for (Scheme scheme : schemes) {
        double baseline = 0.0;
        for (const ModeSpec &m : kModes) {
            const harness::RunOutput &out = results[i++];
            if (m.mode == durability::PersistMode::Off) {
                baseline = out.opsPerMs();
                if (out.stats.pmWrites != 0) {
                    SYNCRON_FATAL("persist mode off charged "
                                  << out.stats.pmWrites
                                  << " PM writes on "
                                  << schemeName(scheme));
                }
            } else if (out.stats.pmWrites == 0) {
                SYNCRON_FATAL("persist mode " << m.label
                                              << " charged no PM "
                                                 "writes on "
                                              << schemeName(scheme));
            }
            if (m.mode == durability::PersistMode::Epoch
                && out.stats.pmFlushes == 0) {
                SYNCRON_FATAL("epoch mode never flushed on "
                              << schemeName(scheme));
            }
            const double overhead =
                baseline > 0.0
                    ? (baseline - out.opsPerMs()) / baseline * 100.0
                    : 0.0;
            table.addRow({schemeName(scheme), m.label,
                          fmt(out.opsPerMs(), 1), fmt(overhead, 1),
                          std::to_string(out.stats.pmWrites),
                          std::to_string(out.stats.pmFlushes)});
            if (m.mode != durability::PersistMode::Off)
                bench.metric("overheadPct/"
                                 + std::string(schemeName(scheme)) + "/"
                                 + m.label,
                             overhead);
        }
    }
    table.addNote("overhead% is throughput lost vs the no-durability "
                  "baseline of the same scheme");
    table.addNote("eager: one modeled PM write per acquire-type op on "
                  "the request path; epoch:N batches N WAL records per "
                  "flush");
    table.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH_MAIN("fig24_durability", run)
