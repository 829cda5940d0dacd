/**
 * @file
 * Synthetic synchronization-scenario generation: declarative specs in,
 * replayable traces out.
 *
 * Each scenario family models a contention regime that none of the
 * Table 6 structures or the three real applications pins down in
 * isolation, so backends can be compared on exactly the stress of
 * interest:
 *
 *   ZipfLock       — closed-loop lock contention with Zipf-skewed lock
 *                    selection: lock 0 is the hot lock; the exponent
 *                    dials the skew from uniform (0) to single-hot-lock.
 *   BurstyLock     — open-loop arrivals in bursts: back-to-back op
 *                    trains separated by long idle gaps, the antithesis
 *                    of the benches' steady closed loops.
 *   PhasedBarrierLock — BSP-style phases: a block of fine-grained lock
 *                    work, then a full-machine barrier, repeated.
 *   ReaderSemaphore — reader-heavy admission: most cores cycle through
 *                    a shared counting semaphore (wait ... post), a
 *                    minority contend on a small lock set.
 *   Replication    — per-partition ordered apply: each core drains a
 *                    bursty upstream into its partition (admission
 *                    semaphore, then the partition's watermark lock),
 *                    with a full-machine barrier between epochs — the
 *                    shape of the replication workload family that
 *                    drives crash-recovery testing.
 *
 * Generation is deterministic in the spec (every random draw flows
 * through the seeded common Rng) and always yields a feasible stream:
 * every acquire is released by the same core, every semaphore wait is
 * re-posted by its waiter, and barriers are waited on by every client
 * core — so replay cannot deadlock on any correct backend.
 */

#ifndef SYNCRON_TRACE_SCENARIO_HH
#define SYNCRON_TRACE_SCENARIO_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/format.hh"

namespace syncron::trace {

/** The synthetic scenario families. */
enum class ScenarioFamily
{
    ZipfLock,
    BurstyLock,
    PhasedBarrierLock,
    ReaderSemaphore,
    Replication,
};

/** Short name ("zipf", "bursty", "phased", "readers", "replication"). */
const char *scenarioFamilyName(ScenarioFamily family);

/** All families, in declaration order. */
inline constexpr ScenarioFamily kAllScenarioFamilies[] = {
    ScenarioFamily::ZipfLock,
    ScenarioFamily::BurstyLock,
    ScenarioFamily::PhasedBarrierLock,
    ScenarioFamily::ReaderSemaphore,
    ScenarioFamily::Replication,
};

/** Declarative description of one synthetic scenario. */
struct ScenarioSpec
{
    ScenarioFamily family = ScenarioFamily::ZipfLock;

    // -- Machine shape (matches SystemConfig defaults)
    unsigned numUnits = 4;
    unsigned clientCoresPerUnit = 15;

    // -- Stream volume
    unsigned opsPerCore = 32; ///< acquire/release (or wait/post) pairs
    Tick meanGap = 4000;      ///< mean inter-arrival gap per core [ticks]
    std::uint64_t seed = 1;

    // -- ZipfLock / BurstyLock / PhasedBarrierLock
    unsigned numLocks = 64;    ///< lock population, round-robin homed
    double zipfExponent = 1.0; ///< 0 = uniform; >= 1 strongly skewed

    // -- BurstyLock
    unsigned burstLen = 8;        ///< ops per burst
    double burstGapFactor = 50.0; ///< inter-burst gap = factor * meanGap

    // -- PhasedBarrierLock / Replication
    unsigned phases = 4; ///< lock blocks (or epochs) between barriers

    // -- ReaderSemaphore / Replication
    double readerFraction = 0.75; ///< cores cycling the semaphore
    unsigned semResources = 4;    ///< semaphore's initial resources

    unsigned
    numClientCores() const
    {
        return numUnits * clientCoresPerUnit;
    }
};

/** Synthesizes traces from declarative scenario specs. */
class ScenarioGenerator
{
  public:
    explicit ScenarioGenerator(const ScenarioSpec &spec);

    /** Produces the scenario's trace; deterministic in the spec. */
    Trace generate() const;

  private:
    ScenarioSpec spec_;
};

/**
 * One spec per scenario family (kAllScenarioFamilies order) on the
 * default 4x15 machine, scaled so opsPerCore ~ 32 * scale; part of the
 * trace set bench/trace_replay.cc replays.
 */
std::vector<ScenarioSpec> benchScenarioSpecs(double scale);

} // namespace syncron::trace

#endif // SYNCRON_TRACE_SCENARIO_HH
