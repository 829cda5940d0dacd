#include "syncron/sync_table.hh"

#include <algorithm>

#include "common/log.hh"
#include "durability/pm_model.hh"

namespace syncron::engine {

bool
StEntry::idle() const
{
    return localWaitBits == 0 && globalWaitBits == 0
           && ownerKind == LockOwner::None && !holdsGrant
           && !requestedGlobal && barrierArrived == 0
           && barrierUnitsArrived == 0 && !barrierGlobalSent
           && semDelta == 0 && !semArmed && !condArmed && condPending == 0;
}

SyncTable::SyncTable(std::uint32_t capacity, SystemStats &stats,
                     bool persistEager)
    : capacity_(capacity), stats_(stats), persistEager_(persistEager)
{
    SYNCRON_ASSERT(capacity_ >= 1, "ST needs at least one entry");
}

void
SyncTable::accountOccupancy(Tick now)
{
    SYNCRON_ASSERT(now >= lastChange_, "occupancy time went backwards");
    stats_.stOccupancyIntegral +=
        static_cast<std::uint64_t>(occupied_) * (now - lastChange_);
    stats_.stOccupancyTime += now - lastChange_;
    lastChange_ = now;
}

StEntry *
SyncTable::find(Addr var)
{
    StEntry **e = index_.find(var);
    return e == nullptr ? nullptr : *e;
}

StEntry *
SyncTable::alloc(Addr var, Tick now)
{
    SYNCRON_ASSERT(!find(var), "double allocation for var @" << var);
    if (full())
        return nullptr;
    accountOccupancy(now);
    ++occupied_;
    stats_.stMaxOccupied =
        std::max<std::uint64_t>(stats_.stMaxOccupied, occupied_);
    ++stats_.stAllocs;
    StEntry *e;
    if (free_.empty()) {
        e = &pool_.emplace_back();
    } else {
        e = free_.back();
        free_.pop_back();
        *e = StEntry{};
    }
    e->addr = var;
    e->occupied = true;
    index_[var] = e;
    if (persistEager_)
        durability::chargePmWrite(stats_, durability::kStEntryBits);
    return e;
}

void
SyncTable::release(Addr var, Tick now)
{
    StEntry *e = find(var);
    SYNCRON_ASSERT(e != nullptr, "release of absent entry @" << var);
    SYNCRON_ASSERT(e->idle(), "releasing non-idle ST entry @" << var);
    accountOccupancy(now);
    SYNCRON_ASSERT(occupied_ > 0, "occupancy underflow");
    --occupied_;
    if (persistEager_)
        durability::chargePmWrite(stats_, durability::kStEntryBits);
    index_.erase(var);
    free_.push_back(e);
}

void
SyncTable::finalize(Tick now)
{
    accountOccupancy(now);
}

} // namespace syncron::engine
