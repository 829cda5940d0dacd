#include "syncron/indexing_counters.hh"

#include "common/bits.hh"
#include "common/log.hh"
#include "durability/pm_model.hh"

namespace syncron::engine {

IndexingCounters::IndexingCounters(std::uint32_t count, SystemStats &stats,
                                   bool persistEager)
    : counters_(count, 0), mask_(count - 1), stats_(stats),
      persistEager_(persistEager)
{
    SYNCRON_ASSERT(isPowerOfTwo(count),
                   "indexing counter count must be a power of two");
}

std::uint32_t
IndexingCounters::indexOf(Addr var) const
{
    // Variables are line-granular (the driver allocates one per line), so
    // the 8 LSBs referenced by the paper are taken above the line offset.
    return static_cast<std::uint32_t>((var / kCacheLineBytes) & mask_);
}

bool
IndexingCounters::servicedViaMemory(Addr var) const
{
    return counters_[indexOf(var)] > 0;
}

void
IndexingCounters::increment(Addr var)
{
    ++counters_[indexOf(var)];
    if (persistEager_)
        durability::chargePmWrite(stats_, durability::kCounterBits);
}

void
IndexingCounters::decrement(Addr var)
{
    std::uint32_t &c = counters_[indexOf(var)];
    if (c > 0)
        --c;
    if (persistEager_)
        durability::chargePmWrite(stats_, durability::kCounterBits);
}

std::uint32_t
IndexingCounters::value(Addr var) const
{
    return counters_[indexOf(var)];
}

} // namespace syncron::engine
