/**
 * @file
 * Crash-injection sweep: the end-to-end durability proof harness.
 *
 * One sweep = one replication workload + one backend + one persist
 * mode, exercised as:
 *
 *   1. a clean reference run captures the full WAL (deterministic
 *      simulation: every crashed run's WAL is a strict prefix of it)
 *      and its final sync state (an analysis::SyncStateModel);
 *   2. for every nth sync-op completion boundary of the reference WAL,
 *      an identical run is crashed just past that boundary and its
 *      persisted image snapshotted;
 *   3. each image round-trips through the SYNCDUR container, feeds
 *      RecoveryEngine against the reference WAL, and the recovery's
 *      `resume` trace is replayed on a fresh system;
 *   4. the model over (recovery prefix + resumed records) must be
 *      finding-free, idle, and logically identical to the reference
 *      final state.
 *
 * Any deviation lands in CrashSweepResult::violations; an empty vector
 * is the pass criterion tests and CI assert on.
 */

#ifndef SYNCRON_HARNESS_CRASH_SWEEP_HH
#define SYNCRON_HARNESS_CRASH_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "system/config.hh"
#include "workloads/replication/replication.hh"

namespace syncron::harness {

/** Outcome of one crash-injection sweep. */
struct CrashSweepResult
{
    /** Distinct sync-op completion boundaries in the reference WAL. */
    std::uint64_t boundaries = 0;
    /** Crashes actually injected (runs that tore down mid-flight). */
    std::uint64_t injections = 0;
    /** Durable records rolled back across all injections. */
    std::uint64_t totalRolledBack = 0;
    /** Reference-WAL records of the clean run. */
    std::uint64_t referenceRecords = 0;

    /** Every failed check, tagged with its crash tick; empty = pass. */
    std::vector<std::string> violations;

    bool passed() const { return violations.empty(); }
};

/**
 * Runs the sweep for @p base (crashAtTick ignored; persistMode must
 * not be Off) over the replication workload @p params, injecting at
 * every @p every -th boundary (1 = every sync-op boundary).
 */
CrashSweepResult runCrashSweep(const SystemConfig &base,
                               const workloads::ReplicationParams &params,
                               unsigned every = 1);

} // namespace syncron::harness

#endif // SYNCRON_HARNESS_CRASH_SWEEP_HH
