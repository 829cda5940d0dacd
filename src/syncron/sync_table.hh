/**
 * @file
 * The Synchronization Table (ST) — the specialized cache structure inside
 * each Synchronization Engine that directly buffers synchronization
 * variables (paper Section 4.2.2, Fig. 7).
 *
 * Each entry holds: the variable's 64-bit address, the global waiting
 * list (one bit per SE, used in the Master role), the local waiting list
 * (one bit per NDP core of the unit), an occupied/free state bit, and a
 * 64-bit TableInfo field whose meaning depends on the primitive (lock
 * owner, barrier arrival count, semaphore resources, or the lock address
 * associated with a condition variable). The evaluated configuration has
 * 64 entries per ST (Table 5); the size is a constructor parameter so
 * Fig. 22/23 can sweep it.
 *
 * Entries live in a pool with stable addresses (SPU handlers hold
 * StEntry* across calls) and a free list, indexed by an AddrMap, so
 * once a run has reached its peak occupancy alloc/release touch no
 * allocator; the pool grows only with occupancy, never to capacity
 * (Hier's software table is 2^20 entries).
 *
 * Occupancy is tracked as a time integral (sum of occupied-entries x
 * elapsed ticks) to reproduce Table 7's max/avg occupancy statistics.
 * Under eager durability every alloc/release also charges one ST-entry
 * image write to the PM counters.
 */

#ifndef SYNCRON_SYNCRON_SYNC_TABLE_HH
#define SYNCRON_SYNCRON_SYNC_TABLE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/addr_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sync/opcodes.hh"

namespace syncron::engine {

/** Who currently owns a lock tracked by an entry. */
enum class LockOwner : std::uint8_t
{
    None,      ///< lock free
    LocalCore, ///< a core of this SE's unit (Local ID in TableInfo)
    Unit,      ///< another SE's unit (Global ID in TableInfo)
};

/**
 * One ST entry (Fig. 7) plus the protocol bookkeeping the SPU keeps in
 * its registers while the entry is live. Fields are grouped by the role
 * (local SE vs. Master SE) and primitive that uses them.
 */
struct StEntry
{
    Addr addr = 0;
    bool occupied = false;

    /// Local waiting list: one bit per NDP core of this unit (Fig. 7).
    std::uint64_t localWaitBits = 0;
    /// Global waiting list: one bit per SE (Master role only).
    std::uint64_t globalWaitBits = 0;
    /// Per-primitive TableInfo payload (barrier count, sem resources,
    /// cond-var lock address).
    std::uint64_t tableInfo = 0;

    // -- Lock
    LockOwner ownerKind = LockOwner::None;
    std::uint32_t ownerId = 0;   ///< local core id or SE global id
    bool holdsGrant = false;     ///< local role: unit holds the lock
    bool requestedGlobal = false;///< local role: acquire_global in flight

    // -- Barrier
    std::uint32_t barrierArrived = 0;      ///< local arrivals (or total
                                           ///< at master in one-level mode)
    std::uint32_t barrierUnitsArrived = 0; ///< master: SEs fully arrived
    bool barrierGlobalSent = false;        ///< local role: aggregate sent

    // -- Semaphore
    /// Master role: posts minus grants so far. The available count is
    /// the semaphore's initial resources, which every wait message
    /// carries, plus this; so a post that arrives before any wait
    /// loses nothing, and an entry back at zero holds no state.
    std::int64_t semDelta = 0;
    bool semArmed = false;     ///< local role: sem_wait_global in flight

    // -- Condition variable
    bool condArmed = false;    ///< local role: cond_wait_global in flight
    /// Master role: signals that arrived before any waiter's arming
    /// message (a network race); consumed by the next wait — turning a
    /// would-be lost wakeup into a Mesa-legal spurious wakeup.
    std::uint32_t condPending = 0;

    /** Resources available to a wait carrying the semaphore's
     *  @p initial resources. */
    std::int64_t
    semAvail(std::uint64_t initial) const
    {
        return static_cast<std::int64_t>(initial) + semDelta;
    }

    /** True when the entry holds no live protocol state. */
    bool idle() const;
};

/** Fixed-capacity table of StEntry with occupancy accounting. */
class SyncTable
{
  public:
    /**
     * @param capacity number of entries (Table 5: 64)
     * @param stats    global stat sink (occupancy integral, max, allocs)
     * @param persistEager charge each alloc/release as a PM write
     */
    SyncTable(std::uint32_t capacity, SystemStats &stats,
              bool persistEager);

    /** Returns the entry for @p var, or nullptr. */
    StEntry *find(Addr var);

    /**
     * Reserves a new entry for @p var at time @p now.
     * @return the entry, or nullptr when the table is full
     */
    StEntry *alloc(Addr var, Tick now);

    /** Releases @p var's entry at time @p now. */
    void release(Addr var, Tick now);

    bool full() const { return occupied_ >= capacity_; }
    std::uint32_t occupied() const { return occupied_; }
    std::uint32_t capacity() const { return capacity_; }

    /** True when @p var holds an entry. */
    bool contains(Addr var) const { return index_.contains(var); }

    /** Closes the occupancy integral at simulation end. */
    void finalize(Tick now);

  private:
    void accountOccupancy(Tick now);

    std::uint32_t capacity_;
    SystemStats &stats_;
    bool persistEager_;
    common::AddrMap<StEntry *> index_;
    std::deque<StEntry> pool_;     ///< entry storage; never shrinks
    std::vector<StEntry *> free_;  ///< released pool entries
    std::uint32_t occupied_ = 0;
    Tick lastChange_ = 0;
};

} // namespace syncron::engine

#endif // SYNCRON_SYNCRON_SYNC_TABLE_HH
