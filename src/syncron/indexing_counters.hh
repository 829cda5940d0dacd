/**
 * @file
 * Indexing counters (paper Section 4.2.3): a small array of counters in
 * each SE, indexed by the low bits of a synchronization variable's
 * address, that track which variables are currently serviced via main
 * memory because the ST overflowed.
 *
 * The evaluated configuration uses 256 counters indexed by 8 LSBs of the
 * (line-granular) variable address. Different variables may alias to the
 * same counter; aliasing only forces a variable onto the memory path
 * unnecessarily — it never affects correctness (Section 4.2.3).
 * Under eager durability every update also charges one counter image
 * write to the PM counters.
 */

#ifndef SYNCRON_SYNCRON_INDEXING_COUNTERS_HH
#define SYNCRON_SYNCRON_INDEXING_COUNTERS_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace syncron::engine {

/** The per-SE indexing-counter array. */
class IndexingCounters
{
  public:
    /** @param persistEager charge each update as a PM write */
    IndexingCounters(std::uint32_t count, SystemStats &stats,
                     bool persistEager);

    /** Counter index for @p var (line-granular low address bits). */
    std::uint32_t indexOf(Addr var) const;

    /** True when @p var is currently serviced via main memory. */
    bool servicedViaMemory(Addr var) const;

    /** Acquire-type message routed to memory: counter++. */
    void increment(Addr var);

    /** Release-type message for a memory-serviced variable: counter--. */
    void decrement(Addr var);

    /** Raw counter value (tests/debug). */
    std::uint32_t value(Addr var) const;

  private:
    std::vector<std::uint32_t> counters_;
    std::uint32_t mask_;
    SystemStats &stats_;
    bool persistEager_;
};

} // namespace syncron::engine

#endif // SYNCRON_SYNCRON_INDEXING_COUNTERS_HH
