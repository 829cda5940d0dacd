/**
 * @file
 * The recovery engine: rebuilds synchronization state after a crash
 * from the persisted image plus the reference log of completed
 * operations — a new consumer of the trace format.
 *
 * Inputs:
 *   - the PersistedImage snapshotted at the crash (the durable WAL
 *     prefix; see durability/image.hh);
 *   - the reference WAL of the same program's clean run (simulation is
 *     deterministic, so the crashed run's stream is a strict prefix of
 *     the reference stream — recover() verifies exactly that).
 *
 * recover() then:
 *   1. validates the image against the reference (shape, primitive
 *      table prefix, record-stream prefix);
 *   2. rebuilds the recovered state as an analysis::SyncStateModel
 *      over the durable records and runs its checks (every release
 *      matches a grant, no semaphore wait granted without a resource,
 *      barrier arrivals conserved);
 *   3. computes a consistent rollback cut: per core, the latest
 *      quiescent point (no lock held, semaphore wait/post balanced) at
 *      or before its durable frontier, globally aligned so that every
 *      barrier round is re-executed by all of its participants or by
 *      none (a crash splits a round's completion records; rolling the
 *      durable arrivals back lets the whole round re-run);
 *   4. splits the reference log at the cut into a `prefix` (state that
 *      stands) and a `resume` trace — the undone tail, replayable
 *      as-is by trace::Replayer on a fresh system.
 *
 * Scope: lock/barrier/semaphore streams (cond-family records are
 * reported as a violation — the replication family that drives crash
 * testing has none).
 */

#ifndef SYNCRON_DURABILITY_RECOVERY_HH
#define SYNCRON_DURABILITY_RECOVERY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "durability/image.hh"
#include "trace/format.hh"

namespace syncron::durability {

/** Outcome of one recovery; see the file comment. */
struct RecoveryResult
{
    /** Validation + invariant failures; empty on a clean recovery. */
    std::vector<std::string> violations;

    std::uint64_t durableRecords = 0;
    /** Durable records undone to reach the consistent cut. */
    std::uint64_t rolledBack = 0;

    /** Reference records that stand (per-core prefix of the cut). */
    trace::Trace prefix;
    /** The undone tail; replay on a fresh system to finish the run. */
    trace::Trace resume;
};

/** Rebuilds state from a persisted image + reference log. */
class RecoveryEngine
{
  public:
    /** Both inputs must outlive the engine. */
    RecoveryEngine(const PersistedImage &image,
                   const trace::Trace &reference)
        : image_(image), ref_(reference)
    {}

    RecoveryResult recover() const;

  private:
    const PersistedImage &image_;
    const trace::Trace &ref_;
};

} // namespace syncron::durability

#endif // SYNCRON_DURABILITY_RECOVERY_HH
