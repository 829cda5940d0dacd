/**
 * @file
 * Private L1 cache model (Table 5: 16 KB, 2-way, 64 B lines, 4-cycle,
 * 23/47 pJ per hit/miss).
 *
 * The model is a tag array with LRU replacement and write-back dirty
 * lines; data values live in workload shadow state, so only hit/miss and
 * victim-writeback outcomes are produced here. Timing (4-cycle hit, DRAM
 * fill on miss) is composed by the caller (core model or server core),
 * because the cost of a miss depends on where the line lives (local DRAM
 * vs. a remote NDP unit across a link).
 *
 * Under the software-assisted coherence of the baseline architecture
 * (Section 2.1), only thread-private and shared read-only data may be
 * cached; shared read-write data bypasses the L1 entirely. That policy is
 * enforced by the core model, not here. The MESI motivation experiments
 * (src/coherence) reuse this tag array with an invalidate() hook.
 */

#ifndef SYNCRON_CACHE_CACHE_HH
#define SYNCRON_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace syncron::cache {

/** Geometry/latency parameters of an L1 cache. */
struct CacheParams
{
    std::uint32_t sizeBytes = 16 * 1024; ///< Table 5: 16 KB
    std::uint32_t ways = 2;              ///< Table 5: 2-way
    std::uint32_t lineBytes = kCacheLineBytes;
    std::uint32_t hitCycles = 4;         ///< Table 5: 4-cycle (core cycles)
};

/** Outcome of a cache access; timing is composed by the caller. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false; ///< a dirty victim must be written back
    Addr victimAddr = 0;    ///< line address of the dirty victim
};

/** Set-associative write-back tag array with LRU replacement. */
class Cache
{
  public:
    Cache(const CacheParams &params, SystemStats &stats);

    /**
     * Looks up @p addr, allocating on miss (and evicting LRU).
     * @param isWrite marks the line dirty on a store
     */
    CacheAccessResult access(Addr addr, bool isWrite);

    /** True if the line containing @p addr is present (no side effects). */
    bool contains(Addr addr) const;

    /**
     * Removes the line containing @p addr if present.
     * @return true if the line was present and dirty
     */
    bool invalidate(Addr addr);

    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return numSets_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    std::uint32_t setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheParams params_;
    SystemStats &stats_;
    std::uint32_t numSets_;
    std::vector<Line> lines_; ///< numSets_ * ways, set-major
    std::uint64_t stamp_ = 0;
};

} // namespace syncron::cache

#endif // SYNCRON_CACHE_CACHE_HH
