#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hh"

namespace syncron {

void
SyncOpLatency::record(Tick latency)
{
    if (count == 0 || latency < minTicks)
        minTicks = latency;
    if (latency > maxTicks)
        maxTicks = latency;
    ++count;
    totalTicks += static_cast<std::uint64_t>(latency);
    const unsigned bucket =
        latency <= 0
            ? 0u
            : std::bit_width(static_cast<std::uint64_t>(latency));
    ++hist[std::min(bucket, kSyncLatencyBuckets - 1)];
}

double
SyncOpLatency::avgTicks() const
{
    if (count == 0)
        return 0.0;
    return static_cast<double>(totalTicks) / static_cast<double>(count);
}

double
SyncOpLatency::percentileTicks(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank in (0, count]: the q-quantile is the value whose cumulative
    // count first reaches q * count.
    const double target =
        std::max(q * static_cast<double>(count), 1e-12);
    std::uint64_t cum = 0;
    for (unsigned b = 0; b < kSyncLatencyBuckets; ++b) {
        if (hist[b] == 0)
            continue;
        if (static_cast<double>(cum + hist[b]) >= target) {
            double value = 0.0;
            if (b > 0) {
                // Bucket b covers [2^(b-1), 2^b); place the rank
                // geometrically within it.
                const double frac = (target - static_cast<double>(cum))
                                    / static_cast<double>(hist[b]);
                value = std::ldexp(1.0, static_cast<int>(b) - 1)
                        * std::exp2(frac);
            }
            return std::clamp(value, static_cast<double>(minTicks),
                              static_cast<double>(maxTicks));
        }
        cum += hist[b];
    }
    return static_cast<double>(maxTicks);
}

SyncOpLatency &
SyncOpLatency::operator+=(const SyncOpLatency &other)
{
    if (other.count != 0) {
        if (count == 0 || other.minTicks < minTicks)
            minTicks = other.minTicks;
        maxTicks = std::max(maxTicks, other.maxTicks);
    }
    count += other.count;
    totalTicks += other.totalTicks;
    for (unsigned b = 0; b < kSyncLatencyBuckets; ++b)
        hist[b] += other.hist[b];
    return *this;
}

void
SystemStats::recordSyncLatency(unsigned opKindIndex, Tick latency)
{
    SYNCRON_ASSERT(opKindIndex < kNumSyncOpKinds,
                   "sync latency for unknown op kind " << opKindIndex);
    syncLatency[opKindIndex].record(latency);
}

double
SystemStats::latencyPercentile(unsigned opKindIndex, double q) const
{
    SYNCRON_ASSERT(opKindIndex < kNumSyncOpKinds,
                   "latency percentile for unknown op kind "
                       << opKindIndex);
    return syncLatency[opKindIndex].percentileTicks(q);
}

void
SystemStats::forEach(
    const std::function<void(const std::string &, double)> &fn) const
{
    fn("instructions", static_cast<double>(instructions));
    fn("memOps", static_cast<double>(memOps));
    fn("syncOps", static_cast<double>(syncOps));
    fn("l1Hits", static_cast<double>(l1Hits));
    fn("l1Misses", static_cast<double>(l1Misses));
    fn("dramReads", static_cast<double>(dramReads));
    fn("dramWrites", static_cast<double>(dramWrites));
    fn("dramRowHits", static_cast<double>(dramRowHits));
    fn("dramRowMisses", static_cast<double>(dramRowMisses));
    fn("xbarMessages", static_cast<double>(xbarMessages));
    fn("xbarBitHops", static_cast<double>(xbarBitHops));
    fn("xbarFlits", static_cast<double>(xbarFlits));
    fn("linkMessages", static_cast<double>(linkMessages));
    fn("linkBits", static_cast<double>(linkBits));
    fn("linkFlits", static_cast<double>(linkFlits));
    fn("bytesInsideUnits", static_cast<double>(bytesInsideUnits));
    fn("bytesAcrossUnits", static_cast<double>(bytesAcrossUnits));
    fn("syncLocalMsgs", static_cast<double>(syncLocalMsgs));
    fn("syncGlobalMsgs", static_cast<double>(syncGlobalMsgs));
    fn("syncOverflowMsgs", static_cast<double>(syncOverflowMsgs));
    fn("syncMemAccesses", static_cast<double>(syncMemAccesses));
    fn("batchedOps", static_cast<double>(batchedOps));
    fn("messagesSaved", static_cast<double>(messagesSaved));
    fn("pmWrites", static_cast<double>(pmWrites));
    fn("pmBitsWritten", static_cast<double>(pmBitsWritten));
    fn("pmFlushes", static_cast<double>(pmFlushes));
    fn("stAllocs", static_cast<double>(stAllocs));
    fn("stOverflowEvents", static_cast<double>(stOverflowEvents));
    fn("stRequests", static_cast<double>(stRequests));
    fn("stMaxOccupied", static_cast<double>(stMaxOccupied));
    fn("stOccupancyIntegral", static_cast<double>(stOccupancyIntegral));
    fn("stOccupancyTime", static_cast<double>(stOccupancyTime));
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
        const SyncOpLatency &lat = syncLatency[k];
        if (lat.count == 0)
            continue;
        const std::string prefix = "syncLat." + std::to_string(k);
        fn(prefix + ".count", static_cast<double>(lat.count));
        fn(prefix + ".avgTicks", lat.avgTicks());
        fn(prefix + ".maxTicks", static_cast<double>(lat.maxTicks));
    }
}

SystemStats &
SystemStats::operator+=(const SystemStats &other)
{
    instructions += other.instructions;
    memOps += other.memOps;
    syncOps += other.syncOps;
    l1Hits += other.l1Hits;
    l1Misses += other.l1Misses;
    dramReads += other.dramReads;
    dramWrites += other.dramWrites;
    dramRowHits += other.dramRowHits;
    dramRowMisses += other.dramRowMisses;
    xbarMessages += other.xbarMessages;
    xbarBitHops += other.xbarBitHops;
    xbarFlits += other.xbarFlits;
    linkMessages += other.linkMessages;
    linkBits += other.linkBits;
    linkFlits += other.linkFlits;
    bytesInsideUnits += other.bytesInsideUnits;
    bytesAcrossUnits += other.bytesAcrossUnits;
    syncLocalMsgs += other.syncLocalMsgs;
    syncGlobalMsgs += other.syncGlobalMsgs;
    syncOverflowMsgs += other.syncOverflowMsgs;
    syncMemAccesses += other.syncMemAccesses;
    batchedOps += other.batchedOps;
    messagesSaved += other.messagesSaved;
    pmWrites += other.pmWrites;
    pmBitsWritten += other.pmBitsWritten;
    pmFlushes += other.pmFlushes;
    stAllocs += other.stAllocs;
    stOverflowEvents += other.stOverflowEvents;
    stRequests += other.stRequests;
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k)
        syncLatency[k] += other.syncLatency[k];
    if (other.stMaxOccupied > stMaxOccupied)
        stMaxOccupied = other.stMaxOccupied;
    stOccupancyIntegral += other.stOccupancyIntegral;
    stOccupancyTime += other.stOccupancyTime;
    return *this;
}

double
SystemStats::avgStOccupancy() const
{
    if (stOccupancyTime == 0)
        return 0.0;
    return static_cast<double>(stOccupancyIntegral)
           / static_cast<double>(stOccupancyTime);
}

} // namespace syncron
