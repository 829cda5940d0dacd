#include "cache/cache.hh"

#include "common/bits.hh"
#include "common/log.hh"

namespace syncron::cache {

Cache::Cache(const CacheParams &params, SystemStats &stats)
    : params_(params), stats_(stats),
      numSets_(params.sizeBytes / (params.lineBytes * params.ways))
{
    SYNCRON_ASSERT(isPowerOfTwo(params_.lineBytes), "line size not pow2");
    SYNCRON_ASSERT(numSets_ >= 1 && isPowerOfTwo(numSets_),
                   "cache geometry must give a power-of-two set count");
    lines_.resize(static_cast<std::size_t>(numSets_) * params_.ways);
}

std::uint32_t
Cache::setOf(Addr addr) const
{
    return static_cast<std::uint32_t>(
        (addr / params_.lineBytes) & (numSets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / params_.lineBytes / numSets_;
}

CacheAccessResult
Cache::access(Addr addr, bool isWrite)
{
    const std::uint32_t set = setOf(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.ways];

    // Hit path.
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = ++stamp_;
            line.dirty = line.dirty || isWrite;
            ++stats_.l1Hits;
            return CacheAccessResult{true, false, 0};
        }
    }

    // Miss: pick invalid way, else LRU.
    Line *victim = base;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = base[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }

    CacheAccessResult res;
    res.hit = false;
    if (victim->valid && victim->dirty) {
        res.writeback = true;
        // Reconstruct the victim's line address from tag and set.
        res.victimAddr =
            (victim->tag * numSets_ + set) * params_.lineBytes;
    }

    victim->valid = true;
    victim->tag = tag;
    victim->dirty = isWrite;
    victim->lruStamp = ++stamp_;
    ++stats_.l1Misses;
    return res;
}

bool
Cache::contains(Addr addr) const
{
    const std::uint32_t set = setOf(addr);
    const Addr tag = tagOf(addr);
    const Line *base = &lines_[static_cast<std::size_t>(set) * params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

bool
Cache::invalidate(Addr addr)
{
    const std::uint32_t set = setOf(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            const bool wasDirty = line.dirty;
            line.valid = false;
            line.dirty = false;
            return wasDirty;
        }
    }
    return false;
}

} // namespace syncron::cache
