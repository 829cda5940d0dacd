#include "workloads/datastructures/structures.hh"

#include <algorithm>
#include <bit>
#include <set>

namespace syncron::workloads {

using core::Core;
using core::MemKind;

SimBstDrachsler::SimBstDrachsler(NdpSystem &sys, unsigned initialSize)
    : sys_(sys), heap_(sys, 64, true) // distributed randomly
{
    Rng rng(sys.config().seed * 41 + 9);
    std::set<std::uint64_t> keys;
    while (keys.size() < initialSize)
        keys.insert(rng.next() >> 8);

    // Nodes distributed randomly; each node's lock homed with it.
    std::vector<Addr> addrs;
    addrs.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        addrs.push_back(heap_.alloc());
    const sync::LockSet locks = sys.api().createLockSetByAddr(addrs);
    keys_.assign(keys.begin(), keys.end());
    nodes_.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i)
        nodes_.push_back(Node{addrs[i], locks[i]});
}

std::size_t
SimBstDrachsler::size() const
{
    return nodes_.size() - deleted_;
}

sim::Process
SimBstDrachsler::worker(Core &c, unsigned ops)
{
    // Drachsler-style deletion: the search descends the tree lock-free
    // (logical ordering), reads the node's payload, and only then locks
    // the victim and its predecessor for the physical unlink. Lock
    // traffic is a tiny fraction of the memory traffic, so all
    // synchronization schemes perform similarly here (Section 6.1.2).
    //
    // Victim choice depends only on this worker's rng stream, the
    // run-immutable node table, and its own past unlinks, keeping the
    // operation stream identical at every --sim-shards count (see
    // SimSkipList).
    sync::SyncApi &api = sys_.api();
    const std::size_t n = nodes_.size();
    std::vector<bool> mine(n); ///< nodes this worker has unlinked
    std::size_t mineCount = 0;
    const std::size_t pathLen = 3 * (63 - std::countl_zero(n | 1));
    std::vector<Addr> path;
    path.reserve(pathLen);
    for (unsigned i = 0; i < ops; ++i) {
        if (mineCount + 2 > n)
            break;
        // Fix victim/pred/path before the first suspension.
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
            if (path.size() >= pathLen || walk == 0)
                break;
        }

        // Lock-free search: ~3 * log2(n) dependent reads (search +
        // logical-ordering validation), then the 64 B payload. These
        // reads are lock-free by design (the locked section
        // re-validates), so they carry no access hints.
        for (Addr hop : path)
            co_await c.load(hop, 16, MemKind::SharedRW);
        co_await c.load(victim.addr, 64, MemKind::SharedRW);
        co_await c.compute(60); // value processing

        if (havePred)
            co_await api.acquire(c, pred.lock);
        co_await api.acquire(c, victim.lock);
        // Unlink under the locks; a concurrent deleter of the same key
        // redoes the idempotent pointer writes (optimistic retry cost).
        // Reclamation is deferred to teardown.
        api.accessHint(c, victim.addr, true);
        co_await c.store(victim.addr, 16, MemKind::SharedRW);
        if (havePred) {
            api.accessHint(c, pred.addr, true);
            co_await c.store(pred.addr, 16, MemKind::SharedRW);
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
        co_await c.compute(10);
    }
}

} // namespace syncron::workloads
