/**
 * @file
 * Replication workload family: per-partition ordered apply with
 * lock-protected watermarks — the live workload driving durability's
 * crash-injection testing (and the `replication` scenario family's
 * synthetic twin).
 *
 * The system's units are the partitions of a replicated log. Each
 * client core serves the partition of its own unit (core i -> partition
 * i % numUnits): it drains a bursty upstream of records — batches of
 * burstLen nearly back-to-back arrivals separated by long idle gaps,
 * modeled as compute intervals from the core's seeded Rng — and applies
 * each record in order:
 *
 *   wait(admission semaphore of p)     // bounded apply pipeline
 *   acquire(watermark lock of p)
 *   accessHint(watermark of p, write)  // advance the partition LSN
 *   release(watermark lock of p)
 *   post(admission semaphore of p)
 *
 * A full-machine barrier closes every epoch (a replication checkpoint
 * round). All operations are blocking, so each core's completion
 * records land in program order — the property the crash-recovery
 * sweep relies on when treating per-core durable counts as
 * program-order prefixes.
 */

#ifndef SYNCRON_WORKLOADS_REPLICATION_REPLICATION_HH
#define SYNCRON_WORKLOADS_REPLICATION_REPLICATION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sync/primitives.hh"

namespace syncron {
class NdpSystem;
} // namespace syncron

namespace syncron::workloads {

/** Shape of one replication run. */
struct ReplicationParams
{
    unsigned epochs = 4;      ///< checkpoint rounds (barriers)
    unsigned opsPerEpoch = 8; ///< records applied per core per epoch
    unsigned burstLen = 4;    ///< upstream records per arrival burst
    unsigned semResources = 4; ///< admission pipeline depth
    unsigned interval = 200;   ///< mean compute instructions between ops
    std::uint64_t seed = 1;

    bool operator==(const ReplicationParams &) const = default;
};

/**
 * Creates the per-partition primitives + watermark lines and spawns one
 * apply loop per client core; the object must outlive the run.
 *
 *   NdpSystem sys(cfg);
 *   ReplicationWorkload w(sys, params);
 *   sys.run();
 */
class ReplicationWorkload
{
  public:
    ReplicationWorkload(NdpSystem &sys, const ReplicationParams &params);

    ReplicationWorkload(const ReplicationWorkload &) = delete;
    ReplicationWorkload &operator=(const ReplicationWorkload &) = delete;

    /** Watermark line of partition @p p (tests inspect placement). */
    Addr watermark(unsigned p) const { return watermarks_[p]; }

  private:
    std::vector<sync::Lock> locks_;      ///< per-partition watermark lock
    std::vector<sync::Semaphore> sems_;  ///< per-partition admission
    std::vector<sync::Barrier> epochBarriers_;
    std::vector<Addr> watermarks_;       ///< per-partition LSN line
};

} // namespace syncron::workloads

#endif // SYNCRON_WORKLOADS_REPLICATION_REPLICATION_HH
