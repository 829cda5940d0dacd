#include "workloads/datastructures/structures.hh"

#include <algorithm>
#include <bit>
#include <map>

#include "common/bits.hh"

namespace syncron::workloads {

using core::Core;
using core::MemKind;

namespace {

/** Tallest tower of a list of @p initialSize nodes: log2 of its size. */
unsigned
maxTowerLevel(unsigned initialSize)
{
    return std::max(2u, log2Exact(std::bit_ceil(
                            std::uint64_t{initialSize} + 1)));
}

} // namespace

SimSkipList::SimSkipList(NdpSystem &sys, unsigned initialSize)
    : sys_(sys), maxLevel_(maxTowerLevel(initialSize)),
      // One 8-byte next pointer per level, in whole cache lines, so a
      // tall tower's unlink stores stay inside its own node (and under
      // its own lock) instead of spilling into the next node.
      heap_(sys, static_cast<std::uint32_t>(lineAlign(
                     Addr{8} * maxLevel_ + kCacheLineBytes - 1)),
            false)
{
    Rng rng(sys.config().seed * 31 + 7);
    std::map<std::uint64_t, unsigned> levels; ///< key -> tower height
    while (levels.size() < initialSize) {
        const std::uint64_t key = rng.next() >> 8;
        if (levels.count(key))
            continue;
        unsigned level = 1;
        while (level < maxLevel_ && rng.chance(0.5))
            ++level;
        levels.emplace(key, level);
    }

    // Nodes are partitioned by key; the per-node locks are created as
    // one set homed with each node's memory (distribute-by-address).
    std::vector<Addr> addrs;
    addrs.reserve(levels.size());
    for (const auto &[key, level] : levels) {
        addrs.push_back(heap_.alloc(
            static_cast<UnitId>(key % sys.config().numUnits)));
    }
    const sync::LockSet locks = sys.api().createLockSetByAddr(addrs);
    keys_.reserve(levels.size());
    nodes_.reserve(levels.size());
    std::size_t i = 0;
    for (const auto &[key, level] : levels) {
        keys_.push_back(key);
        nodes_.push_back(Node{addrs[i], locks[i], level});
        ++i;
    }
}

std::size_t
SimSkipList::size() const
{
    return nodes_.size() - deleted_;
}

sim::Process
SimSkipList::worker(Core &c, unsigned ops)
{
    // Victim choice uses only this worker's rng stream, the
    // run-immutable node table, and this worker's own past unlinks —
    // never the instantaneous shared state — so the operation stream is
    // identical at every --sim-shards count. Other cores' concurrent
    // deletions stay invisible until the locked section, matching an
    // optimistic traversal over not-yet-reclaimed nodes.
    sync::SyncApi &api = sys_.api();
    const std::size_t n = nodes_.size();
    std::vector<bool> mine(n); ///< nodes this worker has unlinked
    std::size_t mineCount = 0;
    std::vector<Addr> path;
    path.reserve(maxLevel_);
    for (unsigned i = 0; i < ops; ++i) {
        if (mineCount >= n)
            break;
        // Pick a random key this worker still considers present
        // (deterministic per-core stream); fix everything the op reads
        // of the table before the first suspension.
        std::size_t v = static_cast<std::size_t>(
            std::lower_bound(keys_.begin(), keys_.end(),
                             c.rng().next() >> 8)
            - keys_.begin());
        if (v == n)
            v = n - 1;
        while (mine[v])
            v = v + 1 == n ? 0 : v + 1;
        const Node &victim = nodes_[v];
        const bool havePred = v > 0;
        const Node &pred = nodes_[havePred ? v - 1 : v];
        path.clear();
        for (std::size_t walk = v;; --walk) {
            path.push_back(nodes_[walk].addr);
            if (path.size() >= maxLevel_ || walk == 0)
                break;
        }

        // Optimistic search: one dependent node load per level, walking
        // the predecessor towers (medium contention: different cores
        // traverse different regions). Lock-free by design — the locked
        // section re-validates — so these loads carry no access hints.
        for (Addr hop : path) {
            co_await c.load(hop, 16, MemKind::SharedRW);
            co_await c.compute(3);
        }

        // Locked deletion: predecessor + victim, then per-level unlink.
        if (havePred)
            co_await api.acquire(c, pred.lock);
        co_await api.acquire(c, victim.lock);

        // Unlink under the locks. A concurrent deleter of the same key
        // redoes the (idempotent) pointer writes — the optimistic
        // algorithm's retry cost, paid in full.
        for (unsigned lvl = 0; lvl < victim.level; ++lvl) {
            if (havePred) {
                api.accessHint(c, pred.addr + lvl * 8, true);
                co_await c.store(pred.addr + lvl * 8, 8,
                                 MemKind::SharedRW);
            }
            api.accessHint(c, victim.addr + lvl * 8, false);
            co_await c.load(victim.addr + lvl * 8, 8,
                            MemKind::SharedRW);
        }
        mine[v] = true;
        ++mineCount;
        if (!nodes_[v].deleted) {
            nodes_[v].deleted = true;
            ++deleted_;
        }

        co_await api.release(c, victim.lock);
        if (havePred)
            co_await api.release(c, pred.lock);
        // Neither the victim's memory nor its lock variable is recycled
        // here: another core may still be traversing or queued on it —
        // the same reason ASCYLIB defers reclamation.
        co_await c.compute(10);
    }
}

} // namespace syncron::workloads
