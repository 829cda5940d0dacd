#include "harness/crash_sweep.hh"

#include <algorithm>
#include <sstream>

#include "analysis/trace_analysis.hh"
#include "common/log.hh"
#include "durability/image.hh"
#include "durability/manager.hh"
#include "durability/recovery.hh"
#include "system/system.hh"
#include "trace/capture.hh"
#include "trace/replay.hh"

namespace syncron::harness {

using analysis::SyncStateModel;
using durability::PersistedImage;
using durability::RecoveryEngine;
using durability::RecoveryResult;

namespace {

/** Feeds @p records, numbered against @p t's table, into @p model. */
void
feed(SyncStateModel &model, const trace::Trace &t,
     const std::vector<trace::TraceRecord> &records)
{
    for (const trace::TraceRecord &r : records)
        model.onComplete(analysis::traceEvent(t, r));
}

/** Model over a full record stream, invariants included. */
SyncStateModel
modelOver(const trace::Trace &t)
{
    SyncStateModel m(analysis::traceShape(t));
    feed(m, t, t.records);
    m.checkInvariants();
    return m;
}

void
tagged(std::vector<std::string> &out, Tick crashTick,
       const std::string &msg)
{
    std::ostringstream os;
    os << "crash@" << crashTick << ": " << msg;
    out.push_back(os.str());
}

} // namespace

CrashSweepResult
runCrashSweep(const SystemConfig &base,
              const workloads::ReplicationParams &params, unsigned every)
{
    SYNCRON_ASSERT(every >= 1, "crash sweep stride must be >= 1");
    SYNCRON_ASSERT(base.persistMode != durability::PersistMode::Off,
                   "crash sweep needs a durability mode (persistMode "
                   "is Off)");

    CrashSweepResult result;

    // 1. Clean reference run: full WAL + final logical state.
    SystemConfig cleanCfg = base;
    cleanCfg.crashAtTick = 0;
    trace::Trace refWal;
    {
        NdpSystem ref(cleanCfg);
        workloads::ReplicationWorkload w(ref, params);
        ref.run();
        SYNCRON_ASSERT(ref.durability() != nullptr,
                       "durability manager missing from reference run");
        refWal = ref.durability()->walTrace();
    }
    result.referenceRecords = refWal.records.size();
    const SyncStateModel refModel = modelOver(refWal);
    for (const analysis::Finding &f : refModel.findings())
        result.violations.push_back("reference run: " + f.message);
    if (!refModel.idle())
        result.violations.push_back(
            "reference run: final state not idle");

    // 2. The injection points: one past each distinct completion tick,
    //    so the crash lands after that op's WAL append but before the
    //    next boundary.
    std::vector<Tick> boundaries;
    boundaries.reserve(refWal.records.size());
    for (const trace::TraceRecord &r : refWal.records)
        boundaries.push_back(r.completed);
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
    result.boundaries = boundaries.size();

    for (std::size_t i = 0; i < boundaries.size(); i += every) {
        const Tick crashTick = boundaries[i] + 1;
        SystemConfig crashCfg = base;
        crashCfg.crashAtTick = crashTick;

        PersistedImage img;
        {
            NdpSystem sys(crashCfg);
            workloads::ReplicationWorkload w(sys, params);
            sys.run();
            if (!sys.crashed())
                continue; // the run outran the injected tick
            SYNCRON_ASSERT(sys.durability() != nullptr,
                           "durability manager missing from crash run");
            img = sys.durability()->snapshot();
        }
        ++result.injections;

        // 3a. The image must survive its own container round-trip.
        std::stringstream ss;
        durability::writeImage(ss, img);
        const PersistedImage reread = durability::readImage(ss);
        if (!(reread == img))
            tagged(result.violations, crashTick,
                   "image changed across serialize/parse round-trip");

        // 3b. Recover against the reference WAL.
        const RecoveryResult rr = RecoveryEngine(reread, refWal).recover();
        for (const std::string &v : rr.violations)
            tagged(result.violations, crashTick, v);
        result.totalRolledBack += rr.rolledBack;
        if (!rr.violations.empty())
            continue; // prefix/resume are meaningless after a failure

        // 3c. Replay the undone tail on a fresh system.
        SystemConfig resumeCfg = base;
        resumeCfg.persistMode = durability::PersistMode::Off;
        resumeCfg.crashAtTick = 0;
        NdpSystem resumed(resumeCfg);
        trace::TraceCapture resumedCap(resumed.config());
        resumed.api().addObserver(&resumedCap);
        trace::Replayer replayer(rr.resume);
        replayer.install(resumed);
        resumed.run();
        if (replayer.opsReplayed() != rr.resume.records.size()) {
            std::ostringstream os;
            os << "resume replay completed " << replayer.opsReplayed()
               << " of " << rr.resume.records.size() << " records";
            tagged(result.violations, crashTick, os.str());
            continue;
        }

        // 4a. The resumed run itself must be well-formed and end idle.
        //     Its capture numbers primitives by first use and its
        //     clock restarts at zero (fresh system), so the check runs
        //     entirely in the resumed capture's own namespace.
        const SyncStateModel live = modelOver(resumedCap.trace());
        for (const analysis::Finding &f : live.findings())
            tagged(result.violations, crashTick,
                   "resumed run: " + f.message);
        if (!live.idle())
            tagged(result.violations, crashTick,
                   "resumed run's final state not idle");

        // 4b. prefix + resume must partition the reference log:
        //     applying both halves (reference numbering and timebase)
        //     reaches the clean run's final state with no invariant
        //     violations. A recovery that dropped or duplicated a
        //     record fails here.
        SyncStateModel fin(analysis::traceShape(refWal));
        feed(fin, refWal, rr.prefix.records);
        feed(fin, refWal, rr.resume.records);
        fin.checkInvariants();
        for (const analysis::Finding &f : fin.findings())
            tagged(result.violations, crashTick,
                   "recovered+resumed: " + f.message);
        if (!fin.idle())
            tagged(result.violations, crashTick,
                   "recovered+resumed state not idle");
        if (!fin.sameStateAs(refModel))
            tagged(result.violations, crashTick,
                   "recovered+resumed state differs from the clean "
                   "run's final state");
    }

    return result;
}

} // namespace syncron::harness
