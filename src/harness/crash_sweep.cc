#include "harness/crash_sweep.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "durability/image.hh"
#include "durability/manager.hh"
#include "durability/oracle.hh"
#include "durability/recovery.hh"
#include "system/system.hh"
#include "trace/capture.hh"
#include "trace/replay.hh"

namespace syncron::harness {

using durability::PersistedImage;
using durability::RecoveryEngine;
using durability::RecoveryResult;
using durability::ShadowOracle;

namespace {

/** Oracle over a full record stream, invariants included. */
ShadowOracle
oracleOver(const trace::Trace &t)
{
    ShadowOracle o(t.primitives);
    for (const trace::TraceRecord &r : t.records)
        o.apply(r);
    o.checkInvariants(t.numClientCores());
    return o;
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
    ShadowOracle refOracle = oracleOver(refWal);
    for (const std::string &v : refOracle.violations())
        result.violations.push_back("reference run: " + v);
    if (!refOracle.idle())
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
        ShadowOracle live = oracleOver(resumedCap.trace());
        for (const std::string &v : live.violations())
            tagged(result.violations, crashTick, "resumed run: " + v);
        if (!live.idle())
            tagged(result.violations, crashTick,
                   "resumed run's final state not idle");

        // 4b. prefix + resume must partition the reference log:
        //     applying both halves (reference numbering and timebase)
        //     reaches the clean run's final state with no invariant
        //     violations. A recovery that dropped or duplicated a
        //     record fails here.
        ShadowOracle fin(refWal.primitives);
        for (const trace::TraceRecord &r : rr.prefix.records)
            fin.apply(r);
        for (const trace::TraceRecord &r : rr.resume.records)
            fin.apply(r);
        fin.checkInvariants(refWal.numClientCores());
        for (const std::string &v : fin.violations())
            tagged(result.violations, crashTick,
                   "recovered+resumed: " + v);
        if (!fin.idle())
            tagged(result.violations, crashTick,
                   "recovered+resumed state not idle");
        if (!fin.sameStateAs(refOracle))
            tagged(result.violations, crashTick,
                   "recovered+resumed state differs from the clean "
                   "run's final state");
    }

    return result;
}

} // namespace syncron::harness
