/**
 * @file
 * Event-sourced statistics for the simulated NDP system.
 *
 * Every device (cache, DRAM, crossbar, link, SE, server core) increments
 * plain counters here as events happen. Derived metrics — energy
 * (Fig. 14), data movement (Fig. 15), ST occupancy (Table 7) — are
 * computed from these counts by system/energy.hh and the harness, so the
 * accounting matches the paper's methodology of counting events in
 * ZSim-Ramulator and applying per-event costs afterwards.
 */

#ifndef SYNCRON_COMMON_STATS_HH
#define SYNCRON_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hh"

namespace syncron {

/** Number of API-level synchronization operation kinds (sync::OpKind). */
inline constexpr unsigned kNumSyncOpKinds = 9;

/** Log2 latency-histogram buckets (bucket b: 2^(b-1) <= ticks < 2^b). */
inline constexpr unsigned kSyncLatencyBuckets = 32;

/**
 * Latency accounting for one API-level synchronization operation kind,
 * recorded at the backend boundary: issue timestamp when the request is
 * handed to the SyncBackend, completion timestamp when the core observes
 * the gate open. Every scheme feeds the same counters, so per-primitive
 * latency distributions are comparable across backends for free.
 */
struct SyncOpLatency
{
    std::uint64_t count = 0;
    std::uint64_t totalTicks = 0;
    Tick minTicks = 0;
    Tick maxTicks = 0;
    std::array<std::uint64_t, kSyncLatencyBuckets> hist{};

    /** Records one completed operation of @p latency ticks. */
    void record(Tick latency);

    /** Average latency in ticks (0 when nothing was recorded). */
    double avgTicks() const;

    /**
     * Latency quantile @p q in [0, 1] (0.99 = p99), in ticks.
     * Log-interpolated inside the hit log2 bucket — bucket b covers
     * [2^(b-1), 2^b), so the estimate is 2^(b-1+frac) where frac is the
     * rank's position within the bucket — and clamped to the exact
     * [minTicks, maxTicks] observed. Returns 0 when nothing was
     * recorded.
     */
    double percentileTicks(double q) const;

    /** Merges another kind-bucket into this one. */
    SyncOpLatency &operator+=(const SyncOpLatency &other);
};

/**
 * All event counters for one simulated system instance.
 *
 * Counter semantics (units in the name where ambiguous):
 *  - cache: L1 data accesses by NDP cores and server cores.
 *  - dram: accesses to the memory arrays of any NDP unit.
 *  - xbar: messages through intra-unit crossbars; bitHops = bits * hops.
 *  - link: transfers over the serial inter-unit links.
 *  - bytesInside/AcrossUnits: data-movement accounting for Fig. 15.
 *  - sync*: synchronization-protocol message counts.
 *  - st*: Synchronization Table allocation/overflow tracking (Table 7,
 *    Fig. 22/23). Occupancy is tracked as a time integral: occupancy
 *    integral / total time = average occupied entries.
 */
struct SystemStats
{
    // -- Core activity
    std::uint64_t instructions = 0;   ///< compute instructions retired
    std::uint64_t memOps = 0;         ///< loads + stores issued by cores
    std::uint64_t syncOps = 0;        ///< API-level sync operations

    // -- Cache
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;

    // -- DRAM
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;

    // -- Intra-unit network (buffered crossbar)
    std::uint64_t xbarMessages = 0;
    std::uint64_t xbarBitHops = 0;
    std::uint64_t xbarFlits = 0; ///< datapath-width chunks transferred

    // -- Inter-unit serial links
    std::uint64_t linkMessages = 0;
    std::uint64_t linkBits = 0;
    std::uint64_t linkFlits = 0; ///< 128-bit serialization chunks

    // -- Data movement (Fig. 15)
    std::uint64_t bytesInsideUnits = 0;
    std::uint64_t bytesAcrossUnits = 0;

    // -- Synchronization protocol
    std::uint64_t syncLocalMsgs = 0;    ///< core <-> local SE / server
    std::uint64_t syncGlobalMsgs = 0;   ///< SE <-> Master SE (cross-unit)
    std::uint64_t syncOverflowMsgs = 0; ///< overflow-opcode messages
    std::uint64_t syncMemAccesses = 0;  ///< syncronVar DRAM accesses
    std::uint64_t batchedOps = 0;       ///< ops carried in coalesced msgs
    std::uint64_t messagesSaved = 0;    ///< request msgs coalescing avoided

    // -- Durability (modeled PM write path for SE state)
    std::uint64_t pmWrites = 0;      ///< persisted writes issued
    std::uint64_t pmBitsWritten = 0; ///< bits reaching the PM domain
    std::uint64_t pmFlushes = 0;     ///< epoch-batched WAL flushes

    /// Per-OpKind latency distributions, indexed by sync::OpKind.
    std::array<SyncOpLatency, kNumSyncOpKinds> syncLatency{};

    /** Records one completed sync op at the backend boundary. */
    void recordSyncLatency(unsigned opKindIndex, Tick latency);

    /**
     * Latency quantile of one op kind (sync::OpKind index), in ticks;
     * see SyncOpLatency::percentileTicks for the interpolation.
     */
    double latencyPercentile(unsigned opKindIndex, double q) const;

    // -- Synchronization Table
    std::uint64_t stAllocs = 0;          ///< entries ever reserved
    std::uint64_t stOverflowEvents = 0;  ///< requests serviced via memory
    std::uint64_t stRequests = 0;        ///< requests that consulted an ST
    std::uint64_t stMaxOccupied = 0;     ///< max entries occupied (any ST)
    /// sum(occupied * dt) over time. Integer (entries are integers,
    /// dt is ticks), so the total does not depend on the order in
    /// which the STs charge it — sharded runs must reproduce 1-shard
    /// stats bit-identically.
    std::uint64_t stOccupancyIntegral = 0;
    Tick stOccupancyTime = 0;            ///< total observed time

    /** Visits every scalar counter as (name, value-as-double). */
    void forEach(
        const std::function<void(const std::string &, double)> &fn) const;

    /** Adds another stat set into this one (for aggregation). */
    SystemStats &operator+=(const SystemStats &other);

    /** Average ST occupancy in entries over the observed interval. */
    double avgStOccupancy() const;
};

} // namespace syncron

#endif // SYNCRON_COMMON_STATS_HH
