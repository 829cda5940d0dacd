#include "analysis/analyzers.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace syncron::analysis {

Addr
AnalysisEngine::pairKey(std::uint32_t core, std::uint64_t prim)
{
    // Core below 2^31 keeps the key off AddrMap's reserved all-ones.
    SYNCRON_ASSERT(core < (1u << 31) && prim <= 0xffffffffULL,
                   "(core " << core << ", prim " << prim
                            << ") does not pack into one table key");
    return (Addr{core} << 32) | prim;
}

// --------------------------------------------------------------------
// Shared held-lock tracking
// --------------------------------------------------------------------

std::vector<AnalysisEngine::HeldLock> &
AnalysisEngine::heldOf(std::uint32_t core)
{
    return grown(held_, core);
}

void
AnalysisEngine::removeHeld(std::uint32_t core, std::uint64_t prim)
{
    std::vector<HeldLock> &held = heldOf(core);
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->prim == prim) {
            held.erase(std::next(it).base());
            return;
        }
    }
}

// --------------------------------------------------------------------
// Crash/recovery generation tracking
// --------------------------------------------------------------------

void
AnalysisEngine::noteCrashRecovery(Tick tick,
                                  const std::set<std::uint64_t> &reminted)
{
    SYNCRON_ASSERT(!finished_, "analysis event after finish()");
    crashSeen_ = true;
    crashTick_ = tick;
    stalePrims_.clear();
    for (std::uint64_t prim = 0; prim < seenPrims_.size(); ++prim) {
        if (seenPrims_[prim])
            stalePrims_.insert(prim);
    }
    for (std::uint64_t prim : reminted)
        stalePrims_.erase(prim);
}

void
AnalysisEngine::lintStaleGeneration(const OpEvent &ev, Tick tick)
{
    if (!crashSeen_ || !stalePrims_.count(ev.prim)
        || !staleReported_.insert(ev.prim).second) {
        return;
    }
    Finding f;
    f.kind = FindingKind::StaleGenerationUse;
    std::ostringstream os;
    os << "core " << ev.core << " used " << primName(ev.prim)
       << ", minted before the crash at tick " << crashTick_
       << " and never re-minted by recovery (stale generation)";
    f.message = os.str();
    f.core = ev.core;
    f.prim = ev.prim;
    f.tick = tick;
    report_.findings.push_back(f);
}

// --------------------------------------------------------------------
// Event intake
// --------------------------------------------------------------------

void
AnalysisEngine::onIssue(const OpEvent &ev)
{
    SYNCRON_ASSERT(!finished_, "analysis event after finish()");
    sawIssues_ = true;
    ++grown(outstanding_, ev.core);
    lintStaleGeneration(ev, ev.issued);
    grown(seenPrims_, ev.prim) = 1;
    model_.onIssue(ev);

    switch (ev.kind) {
      case sync::OpKind::LockAcquire:
        // Issue-time edges let the analyzer see the in-flight half of
        // an actual deadlock (acquires that never complete). They are
        // a superset of nothing: a completed acquire adds the same
        // edges again and the per-edge map keeps the first witness.
        addOrderEdges(ev.core, ev.prim, ev.issued);
        ++inflightAcquires_[pairKey(ev.core, ev.prim)];
        break;
      case sync::OpKind::LockRelease:
        // The SE commits a release when it is issued; pipelined record
        // completion can drift past later grants, so the held set is
        // maintained here (see commitRelease).
        commitRelease(ev.core, ev.prim, ev.issued);
        break;
      default:
        break;
    }
}

void
AnalysisEngine::onComplete(const OpEvent &ev)
{
    SYNCRON_ASSERT(!finished_, "analysis event after finish()");
    if (sawIssues_)
        --grown(outstanding_, ev.core);
    lintStaleGeneration(ev, ev.completed);
    grown(seenPrims_, ev.prim) = 1;
    model_.onComplete(ev);

    switch (ev.kind) {
      case sync::OpKind::LockAcquire: {
        const Addr key = pairKey(ev.core, ev.prim);
        if (unsigned *n = inflightAcquires_.find(key);
            n != nullptr && --*n == 0) {
            inflightAcquires_.erase(key);
        }
        addOrderEdges(ev.core, ev.prim, ev.completed);
        heldOf(ev.core).push_back(HeldLock{ev.prim, ev.completed});
        // A coalesced acquire+release pair: the release was issued
        // while this acquire was still in flight and parked; commit it
        // now that the grant has landed.
        if (unsigned *n = preIssuedReleases_.find(key)) {
            if (--*n == 0)
                preIssuedReleases_.erase(key);
            commitRelease(ev.core, ev.prim, ev.completed);
        }
        break;
      }

      case sync::OpKind::LockRelease:
        if (!sawIssues_)
            removeHeld(ev.core, ev.prim); // else committed at issue
        break;

      case sync::OpKind::CondWait:
        // cond_wait = release of the associated lock at issue +
        // reacquisition at completion. The waiting core is blocked in
        // between (blocking form only, in-order core), so processing
        // both halves here keeps its held set exact. (The model
        // reports a release of a lock the core does not hold.)
        removeHeld(ev.core, ev.assoc);
        addOrderEdges(ev.core, ev.assoc, ev.completed);
        heldOf(ev.core).push_back(HeldLock{ev.assoc, ev.completed});
        break;

      default:
        break;
    }
}

// --------------------------------------------------------------------
// Release commit
// --------------------------------------------------------------------

void
AnalysisEngine::commitRelease(std::uint32_t core, std::uint64_t prim,
                              Tick tick)
{
    // Issued while its own acquire is still in flight (the coalesced
    // acquire+release batching the SE supports): park it; the acquire's
    // completion consumes it. Only when the core does not already hold
    // the lock — then the release belongs to the held instance.
    bool held = false;
    for (const HeldLock &h : heldOf(core))
        held = held || h.prim == prim;
    if (!held && inflightAcquires_.contains(pairKey(core, prim))) {
        ++preIssuedReleases_[pairKey(core, prim)];
        return;
    }

    model_.release(core, prim, tick, tick);
    removeHeld(core, prim);
}

// --------------------------------------------------------------------
// Lock-order analyzer
// --------------------------------------------------------------------

void
AnalysisEngine::addOrderEdges(std::uint32_t core, std::uint64_t to,
                              Tick toTick)
{
    for (const HeldLock &h : heldOf(core)) {
        if (h.prim == to)
            continue;
        order_[h.prim].emplace(to, EdgeWitness{core, h.since, toTick});
    }
}

namespace {

/** DFS state for cycle extraction over the held-before graph. */
struct CycleFinder
{
    using Graph =
        std::map<std::uint64_t,
                 std::map<std::uint64_t, AnalysisEngine::EdgeWitness>>;

    explicit CycleFinder(const Graph &graph) : graph(graph) {}

    const Graph &graph;
    std::map<std::uint64_t, int> color; ///< 0 white, 1 gray, 2 black
    std::vector<std::uint64_t> path;
    std::set<std::vector<std::uint64_t>> cycles; ///< canonicalized

    void
    visit(std::uint64_t node)
    {
        color[node] = 1;
        path.push_back(node);
        auto it = graph.find(node);
        if (it != graph.end()) {
            for (const auto &[next, witness] : it->second) {
                const int c = color[next];
                if (c == 0) {
                    visit(next);
                } else if (c == 1) {
                    // Back edge: the cycle is path[pos(next)..] + next.
                    auto pos = std::find(path.begin(), path.end(), next);
                    std::vector<std::uint64_t> cycle(pos, path.end());
                    // Canonical rotation (smallest node first) so the
                    // same cycle found from different roots dedupes.
                    auto minIt =
                        std::min_element(cycle.begin(), cycle.end());
                    std::rotate(cycle.begin(), minIt, cycle.end());
                    cycles.insert(std::move(cycle));
                }
            }
        }
        path.pop_back();
        color[node] = 2;
    }
};

} // namespace

void
AnalysisEngine::reportCycles(AnalysisReport &report)
{
    CycleFinder finder(order_);
    for (const auto &[node, edges] : order_) {
        if (finder.color[node] == 0)
            finder.visit(node);
    }

    for (const std::vector<std::uint64_t> &cycle : finder.cycles) {
        Finding f;
        f.kind = FindingKind::LockOrderCycle;
        std::string chain;
        for (std::uint64_t node : cycle)
            chain += primName(node) + " -> ";
        chain += primName(cycle.front());
        f.message = "lock-order cycle: " + chain;
        f.prim = cycle.front();
        for (std::size_t i = 0; i < cycle.size(); ++i) {
            const std::uint64_t from = cycle[i];
            const std::uint64_t to = cycle[(i + 1) % cycle.size()];
            const EdgeWitness &w = order_.at(from).at(to);
            if (i == 0) {
                f.core = w.core;
                f.tick = w.toTick;
            }
            std::ostringstream note;
            note << "core " << w.core << " acquired " << primName(to)
                 << " while holding " << primName(from)
                 << " (held since tick " << w.fromTick << ")";
            f.witness.push_back(
                WitnessStep{w.core, to, w.toTick, note.str()});
        }
        report.findings.push_back(std::move(f));
    }
}

// --------------------------------------------------------------------
// Lockset race checker
// --------------------------------------------------------------------

void
AnalysisEngine::onAccess(std::uint32_t core, Addr addr, bool isWrite,
                         Tick tick)
{
    SYNCRON_ASSERT(!finished_, "analysis access after finish()");
    ShadowWord &w = shadow_[addr];
    const std::vector<HeldLock> &held = heldOf(core);

    switch (w.state) {
      case AccessState::Virgin:
        w.state = AccessState::Exclusive;
        w.firstCore = core;
        break;

      case AccessState::Exclusive:
        if (core == w.firstCore)
            break; // single-owner initialization: no refinement yet
        // Second core: the candidate set starts as its current lockset.
        for (const HeldLock &h : held)
            w.candidates.insert(h.prim);
        w.state = isWrite ? AccessState::SharedModified
                          : AccessState::Shared;
        break;

      case AccessState::Shared:
      case AccessState::SharedModified: {
        // Refine: candidates ∩= locks held on this access.
        for (auto it = w.candidates.begin(); it != w.candidates.end();) {
            const std::uint64_t cand = *it;
            const bool holds =
                std::any_of(held.begin(), held.end(),
                            [cand](const HeldLock &h) {
                                return h.prim == cand;
                            });
            it = holds ? std::next(it) : w.candidates.erase(it);
        }
        if (isWrite)
            w.state = AccessState::SharedModified;
        break;
      }
    }

    if (w.state == AccessState::SharedModified && w.candidates.empty()
        && !w.reported) {
        w.reported = true;
        Finding f;
        f.kind = FindingKind::EmptyLocksetRace;
        std::ostringstream msg;
        msg << "shadow state @" << addr << ": "
            << (isWrite ? "write" : "read") << " by core " << core
            << " with empty candidate lockset (racing with core "
            << (w.everWritten ? w.lastWriterCore : w.firstCore) << ")";
        f.message = msg.str();
        f.core = core;
        f.prim = addr;
        f.tick = tick;
        if (w.everWritten) {
            f.witness.push_back(WitnessStep{w.lastWriterCore, addr,
                                            w.lastWriteTick,
                                            "previous write"});
        } else {
            f.witness.push_back(WitnessStep{
                w.firstCore, addr, 0, "earlier exclusive access"});
        }
        f.witness.push_back(
            WitnessStep{core, addr, tick,
                        isWrite ? "racing write" : "racing read"});
        report_.findings.push_back(std::move(f));
    }

    if (isWrite) {
        w.everWritten = true;
        w.lastWriterCore = core;
        w.lastWriteTick = tick;
    }
}

// --------------------------------------------------------------------
// Finish
// --------------------------------------------------------------------

AnalysisReport
AnalysisEngine::finish()
{
    SYNCRON_ASSERT(!finished_, "AnalysisEngine::finish() called twice");
    finished_ = true;

    reportCycles(report_);
    model_.checkInvariants(true);
    report_.findings.insert(report_.findings.end(),
                            model_.findings().begin(),
                            model_.findings().end());

    if (sawIssues_) {
        for (std::uint32_t core = 0; core < outstanding_.size(); ++core) {
            const std::int64_t count = outstanding_[core];
            if (count <= 0)
                continue;
            Finding f;
            f.kind = FindingKind::PendingOpLeak;
            f.message = std::to_string(count)
                        + " operation(s) issued by core "
                        + std::to_string(core)
                        + " never completed (leaked futures or "
                          "operations blocked at teardown)";
            f.core = core;
            report_.findings.push_back(std::move(f));
        }
    }

    return std::move(report_);
}

} // namespace syncron::analysis
