/**
 * @file
 * Open-loop sync-op issue engine: drives a precomputed ArrivalSchedule
 * through the asynchronous sync API with a bounded per-core in-flight
 * window.
 *
 * Each client core runs `window` worker coroutines that pull arrivals
 * from the core's schedule cursor in order. A free worker sleeps until
 * its arrival's tick, then issues acquire -> (hold) -> release through
 * the submit*() path. When a worker pulls an arrival whose tick already
 * passed, every window slot was busy at the scheduled instant — the
 * open-loop backpressure signal — and the spec's OverloadPolicy decides:
 * Queue issues it late and accounts the delay, Drop sheds it.
 *
 * One hardware constraint shapes the issue path: an SE waitlist is a
 * bitmask with one bit per core, so a core may have at most one
 * acquire in flight per lock (a second one would collapse into the
 * same waitlist bit and its grant would be lost). Workers of one core
 * therefore serialize same-lock arrivals through a per-core in-flight
 * set: under Queue the later worker parks on a gate and ownership is
 * handed off FIFO at release; under Drop a busy lock at the scheduled
 * tick sheds the arrival like any other overload.
 *
 * Sharded-determinism discipline (PR 8): the schedule is immutable for
 * the whole run, and each core's cursor/counters are touched only by
 * that core's coroutines, which are all homed on the core's shard — so
 * runs are bit-identical for any --sim-shards value.
 */

#ifndef SYNCRON_LOAD_OPENLOOP_HH
#define SYNCRON_LOAD_OPENLOOP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "load/arrival.hh"
#include "sim/process.hh"
#include "sync/primitives.hh"

namespace syncron {
class NdpSystem;
namespace core {
class Core;
} // namespace core
} // namespace syncron

namespace syncron::load {

/** Issue/drop/queue accounting for one core (or an aggregate). */
struct LoadCounters
{
    std::uint64_t issued = 0;  ///< arrivals that became sync ops
    std::uint64_t dropped = 0; ///< arrivals shed (Drop policy)
    std::uint64_t queued = 0;  ///< arrivals issued late (Queue policy)
    /// Total lateness of queued arrivals, ticks (issue - scheduled).
    std::uint64_t queueDelayTicks = 0;

    LoadCounters &
    operator+=(const LoadCounters &other)
    {
        issued += other.issued;
        dropped += other.dropped;
        queued += other.queued;
        queueDelayTicks += other.queueDelayTicks;
        return *this;
    }
};

/**
 * The open-loop workload on an externally built system. The spec and
 * schedule must outlive the run; the schedule must cover exactly the
 * system's client cores.
 *
 *   NdpSystem sys(cfg);
 *   load::ArrivalSchedule sched =
 *       load::buildArrivalSchedule(spec, sys.numClientCores());
 *   load::OpenLoopWorkload w(sys, spec, sched);
 *   sys.run();
 *   w.totals();
 */
class OpenLoopWorkload
{
  public:
    OpenLoopWorkload(NdpSystem &sys, const LoadSpec &spec,
                     const ArrivalSchedule &sched);

    OpenLoopWorkload(const OpenLoopWorkload &) = delete;
    OpenLoopWorkload &operator=(const OpenLoopWorkload &) = delete;

    /** Aggregate accounting after the run. */
    LoadCounters totals() const;

  private:
    /// Cursor + counters + in-flight lock set of one core; mutated only
    /// by that core's window workers (shard-local, so no
    /// synchronization needed). busyLocks/waiters hold at most
    /// `window` entries, so linear scans are cheap.
    struct PerCore
    {
        std::size_t cursor = 0;
        LoadCounters counters;
        /// Locks this core currently has an op in flight on.
        std::vector<std::uint32_t> busyLocks;
        /// FIFO of workers parked on a same-core busy lock (Queue
        /// policy); release hands the in-flight slot to the first
        /// matching waiter without clearing busyLocks.
        std::vector<std::pair<std::uint32_t, sim::Gate *>> waiters;
    };

    sim::Process worker(core::Core &c, unsigned coreIdx);

    NdpSystem &sys_;
    const LoadSpec &spec_;
    const ArrivalSchedule &sched_;
    sync::LockSet locks_;
    std::vector<PerCore> state_;
};

} // namespace syncron::load

#endif // SYNCRON_LOAD_OPENLOOP_HH
