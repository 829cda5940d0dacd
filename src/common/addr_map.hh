/**
 * @file
 * Open-addressing hash map keyed by a physical address — the per-message
 * lookup structure of the Synchronization Engine model (ST index,
 * in-flight and redirect counters) and of every layer that watches or
 * serves an op: SyncApi's handle generations, FlatSyncState's variable
 * index and PendingOps, TraceCapture's and LiveAnalyzer's primitive
 * ids, and AnalysisEngine's (core, lock) tables under a packed key.
 *
 * Every simulated SE message probes these tables, so they avoid what a
 * std::unordered_map costs per operation: a 64-bit prime modulo per
 * lookup and a node allocation per insert. Slots form one power-of-two
 * array indexed by a multiplicative (Fibonacci) hash of the key; a
 * collision probes linearly, and erase shifts the rest of the probe run
 * back instead of leaving tombstones, so lookups never degrade and the
 * array only reallocates when it doubles. Once a run has reached its
 * working set, inserts and erases touch no allocator.
 *
 * References and pointers to values are invalidated by any insert or
 * erase (entries move). Store indirection (e.g. pool pointers) for
 * values that must stay put across calls. Iteration is not offered: no
 * caller may depend on hash order. The all-ones address is reserved as
 * the empty-slot marker.
 */

#ifndef SYNCRON_COMMON_ADDR_MAP_HH
#define SYNCRON_COMMON_ADDR_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace syncron::common {

/** Address-keyed open-addressing map with backward-shift erase. */
template <typename V>
class AddrMap
{
  public:
    AddrMap() { resize(kMinSlots); }

    /** Returns the value for @p key, or nullptr. */
    V *
    find(Addr key)
    {
        // Many tables are empty on most lookups (handle generations,
        // pending counts); answer those without touching the slots.
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = homeSlot(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmpty)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrMap *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Returns the value for @p key, inserting V{} when absent. */
    V &
    operator[](Addr key)
    {
        SYNCRON_ASSERT(key != kEmpty, "AddrMap key " << key
                                                     << " is reserved");
        std::size_t i = homeSlot(key);
        for (;; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return slots_[i].value;
            if (slots_[i].key == kEmpty)
                break;
        }
        if (2 * (size_ + 1) > slots_.size()) {
            grow();
            i = homeSlot(key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask_;
        }
        ++size_;
        slots_[i].key = key;
        slots_[i].value = V{};
        return slots_[i].value;
    }

    /** Removes @p key; returns whether it was present. */
    bool
    erase(Addr key)
    {
        std::size_t hole = homeSlot(key);
        for (;; hole = (hole + 1) & mask_) {
            if (slots_[hole].key == key)
                break;
            if (slots_[hole].key == kEmpty)
                return false;
        }
        // Backward shift: pull each later member of the probe run whose
        // home does not lie in (hole, j] into the hole, so every key
        // stays reachable from its home without tombstones.
        for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
            Slot &s = slots_[j];
            if (s.key == kEmpty)
                break;
            const std::size_t home = homeSlot(s.key);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = std::move(s);
                hole = j;
            }
        }
        slots_[hole].key = kEmpty;
        slots_[hole].value = V{};
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Current slot-array length (a power of two). */
    std::size_t slotCount() const { return slots_.size(); }

    /** The slot a probe for @p key starts at. */
    std::size_t
    homeSlot(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

  private:
    static constexpr std::size_t kMinSlots = 16;
    static constexpr Addr kEmpty = ~Addr{0};

    struct Slot
    {
        Addr key = kEmpty;
        V value{};
    };

    /** Empties the table into @p n (a power of two) slots. */
    void
    resize(std::size_t n)
    {
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64 - log2Exact(n);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        resize(old.size() * 2);
        for (Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = homeSlot(s.key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask_;
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace syncron::common

#endif // SYNCRON_COMMON_ADDR_MAP_HH
