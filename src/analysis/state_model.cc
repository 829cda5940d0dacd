#include "analysis/state_model.hh"

#include <algorithm>
#include <numeric>

namespace syncron::analysis {

std::string
primName(std::uint64_t prim)
{
    return "prim#" + std::to_string(prim);
}

void
SyncStateModel::report(FindingKind kind, std::string message,
                       std::uint32_t core, std::uint64_t prim, Tick tick,
                       std::vector<WitnessStep> witness)
{
    Finding f;
    f.kind = kind;
    f.message = std::move(message);
    f.core = core;
    f.prim = prim;
    f.tick = tick;
    f.witness = std::move(witness);
    findings_.push_back(std::move(f));
}

// --------------------------------------------------------------------
// Event intake
// --------------------------------------------------------------------

void
SyncStateModel::onIssue(const OpEvent &ev)
{
    live_ = true;
    switch (ev.kind) {
      case sync::OpKind::BarrierWaitWithinUnit:
      case sync::OpKind::BarrierWaitAcrossUnits:
        // Checked at issue so an over-subscribed barrier (whose waits
        // never complete) is still diagnosed.
        lintBarrier(ev);
        break;
      case sync::OpKind::CondWait:
        // The SE releases the associated lock when the wait is issued.
        condRelease(ev);
        break;
      default:
        break;
    }
}

void
SyncStateModel::onComplete(const OpEvent &ev)
{
    switch (ev.kind) {
      case sync::OpKind::LockAcquire:
        grant(ev.core, ev.prim, ev.completed);
        break;

      case sync::OpKind::LockRelease:
        if (!live_)
            release(ev.core, ev.prim, ev.issued, ev.completed);
        break;

      case sync::OpKind::BarrierWaitWithinUnit:
      case sync::OpKind::BarrierWaitAcrossUnits:
        lintBarrier(ev);
        arrive(ev);
        break;

      case sync::OpKind::SemWait:
        semaphore(ev, true);
        break;

      case sync::OpKind::SemPost:
        semaphore(ev, false);
        break;

      case sync::OpKind::CondWait:
        // Release at issue (live, already done) or here (offline), then
        // reacquisition at completion.
        if (!live_)
            condRelease(ev);
        grant(ev.core, ev.assoc, ev.completed);
        break;

      case sync::OpKind::CondSignal:
      case sync::OpKind::CondBroadcast:
        break;
    }
}

// --------------------------------------------------------------------
// Locks
// --------------------------------------------------------------------

void
SyncStateModel::grant(std::uint32_t core, std::uint64_t prim, Tick tick)
{
    LockState &s = grown(locks_, prim);
    if (s.owned && s.owner != core) {
        if (live_) {
            report(FindingKind::DoubleGrant,
                   "lock " + primName(prim) + " granted to core "
                       + std::to_string(core) + " while owned by core "
                       + std::to_string(s.owner),
                   core, prim, tick,
                   {WitnessStep{s.owner, prim, s.ownedSince,
                                "owner's grant"},
                    WitnessStep{core, prim, tick, "second grant"}});
        }
        // Offline this is a release recorded late; live, the owner's
        // eventual release must not be flagged a second time.
        ++s.pendingReleases[s.owner];
    }
    s.owned = true;
    s.owner = core;
    s.ownedSince = tick;
}

bool
SyncStateModel::dropOwnership(LockState &s, std::uint32_t core, Tick tick)
{
    if (s.owned && s.owner == core) {
        s.owned = false;
        s.everReleased = true;
        s.lastReleaser = core;
        s.lastReleaseTick = tick;
        return true;
    }
    if (auto it = s.pendingReleases.find(core);
        it != s.pendingReleases.end()) {
        // Delayed record of a release the SE already processed (the
        // next owner's grant was recorded first) — legitimate.
        if (--it->second == 0)
            s.pendingReleases.erase(it);
        return true;
    }
    return false;
}

void
SyncStateModel::release(std::uint32_t core, std::uint64_t prim,
                        Tick issued, Tick completed)
{
    LockState &s = grown(locks_, prim);
    if (dropOwnership(s, core, completed))
        return;

    std::vector<WitnessStep> witness;
    FindingKind kind = FindingKind::ReleaseWithoutAcquire;
    std::string msg = "lock " + primName(prim) + " released by core "
                      + std::to_string(core);
    if (!s.owned && s.everReleased && s.lastReleaser == core) {
        kind = FindingKind::DoubleRelease;
        msg = "lock " + primName(prim) + " released twice by core "
              + std::to_string(core) + " without reacquiring";
        witness.push_back(WitnessStep{s.lastReleaser, prim,
                                      s.lastReleaseTick,
                                      "previous release"});
    } else if (s.owned) {
        msg += " while owned by core " + std::to_string(s.owner);
        witness.push_back(
            WitnessStep{s.owner, prim, s.ownedSince, "owner's acquire"});
    } else {
        msg += " which never acquired it";
    }
    witness.push_back(
        WitnessStep{core, prim, issued, "offending release"});
    report(kind, std::move(msg), core, prim, issued, std::move(witness));
}

void
SyncStateModel::condRelease(const OpEvent &ev)
{
    // Consumes the waiter's displaced-owner entry too: after a handoff
    // (the signaler's grant displaced the waiter) the entry is the
    // waiter's, and leaving it would absorb a later bogus release.
    if (dropOwnership(grown(locks_, ev.assoc), ev.core, ev.issued))
        return;
    report(FindingKind::ReleaseWithoutAcquire,
           "cond_wait on " + primName(ev.prim) + " releases associated lock "
               + primName(ev.assoc) + " the core does not hold",
           ev.core, ev.assoc, ev.issued);
}

// --------------------------------------------------------------------
// Barriers
// --------------------------------------------------------------------

void
SyncStateModel::lintBarrier(const OpEvent &ev)
{
    BarrierState &b = grown(barriers_, ev.prim);
    if (b.reported)
        return;

    const bool withinUnit =
        ev.kind == sync::OpKind::BarrierWaitWithinUnit;
    const std::uint32_t capacity = withinUnit
                                       ? shape_.clientCoresPerUnit
                                       : shape_.totalClientCores();

    std::string why;
    if (ev.participants == 0) {
        why = "zero participants";
    } else if (capacity != 0 && ev.participants > capacity) {
        why = std::to_string(ev.participants) + " participants exceed "
              + (withinUnit ? "the unit's " : "the machine's ")
              + std::to_string(capacity) + " client cores";
    } else if (b.participants != 0 && b.participants != ev.participants) {
        why = "arity changed across waits ("
              + std::to_string(b.participants) + " vs "
              + std::to_string(ev.participants) + ")";
    }
    if (b.participants == 0)
        b.participants = ev.participants;
    if (why.empty())
        return;

    b.reported = true;
    report(FindingKind::BarrierArityMismatch,
           "barrier " + primName(ev.prim) + ": " + why, ev.core, ev.prim,
           ev.issued,
           {WitnessStep{ev.core, ev.prim, ev.issued, "offending wait"}});
}

void
SyncStateModel::arrive(const OpEvent &ev)
{
    BarrierState &b = grown(barriers_, ev.prim);
    const bool withinUnit =
        ev.kind == sync::OpKind::BarrierWaitWithinUnit;
    const std::uint32_t scope = withinUnit ? shape_.clientCoresPerUnit
                                           : shape_.totalClientCores();
    if (scope == 0)
        return; // shape unknown: nothing to conserve against
    if (b.arrivals.empty()) {
        b.firstCore = withinUnit ? ev.core - ev.core % scope : 0;
        b.arrivals.assign(scope, 0);
        b.atLo = scope;
    }

    std::string why;
    if (ev.core - b.firstCore >= scope) { // wraps below firstCore too
        why = "core " + std::to_string(ev.core)
              + " waits outside the barrier's unit";
    } else {
        std::uint64_t &n = b.arrivals[ev.core - b.firstCore];
        if (n++ == b.lo && --b.atLo == 0) {
            // The slowest core finished its round: the floor moves up.
            ++b.lo;
            b.atLo = static_cast<std::uint32_t>(
                std::count(b.arrivals.begin(), b.arrivals.end(), b.lo));
        }
        // A full-scope barrier cannot release round k+1 before every
        // core completed round k: two rounds apart is a lost or
        // invented arrival.
        if (n > b.lo + 1 && b.participants == scope) {
            why = "core " + std::to_string(ev.core) + " completed "
                  + std::to_string(n) + " rounds while another core "
                  + "completed " + std::to_string(b.lo);
        }
    }
    if (why.empty() || b.reported)
        return;
    b.reported = true;
    report(FindingKind::BarrierNotConserved,
           "barrier " + primName(ev.prim) + ": " + why, ev.core, ev.prim,
           ev.completed,
           {WitnessStep{ev.core, ev.prim, ev.completed,
                        "offending arrival"}});
}

// --------------------------------------------------------------------
// Semaphores
// --------------------------------------------------------------------

void
SyncStateModel::semaphore(const OpEvent &ev, bool wait)
{
    SemState &s = grown(sems_, ev.prim);
    if (s.balance.size() <= ev.core) {
        s.balance.resize(std::max<std::size_t>(shape_.totalClientCores(),
                                               ev.core + std::size_t{1}));
    }
    if (wait) {
        if (!s.initKnown) {
            s.initKnown = true;
            s.initial = ev.resources;
        }
        ++s.balance[ev.core];
        s.grants.push_back(SemState::Grant{ev.completed, ev.core});
    } else {
        // Accounted at the ISSUE tick: req_async posts commit at issue
        // but may be recorded later (an awaited batch future), and a
        // grant they enabled can be recorded in between. The merge in
        // checkInvariants() orders posts and grants by tick, so record
        // order never skews the accounting.
        --s.balance[ev.core];
        s.postTicks.push_back(ev.issued);
    }
}

void
SyncStateModel::checkInvariants(bool teardown)
{
    for (std::uint64_t prim = 0; prim < locks_.size(); ++prim) {
        const LockState &s = locks_[prim];
        if (!teardown || !s.owned)
            continue;
        report(FindingKind::LockHeldAtTeardown,
               "lock " + primName(prim) + " still owned by core "
                   + std::to_string(s.owner) + " when the run finished",
               s.owner, prim, s.ownedSince);
    }

    for (std::uint64_t prim = 0; prim < sems_.size(); ++prim) {
        SemState &s = sems_[prim];
        if (s.grants.empty())
            continue;
        std::sort(s.postTicks.begin(), s.postTicks.end());
        std::stable_sort(s.grants.begin(), s.grants.end(),
                         [](const SemState::Grant &a,
                            const SemState::Grant &b) {
                             return a.tick < b.tick;
                         });
        std::int64_t balance = s.initial;
        std::size_t post = 0;
        std::uint64_t waits = 0;
        for (const SemState::Grant &g : s.grants) {
            // Posts at the grant's own tick count as available: an
            // ideal backend can post and grant in the same tick.
            while (post < s.postTicks.size()
                   && s.postTicks[post] <= g.tick) {
                ++post;
                ++balance;
            }
            ++waits;
            if (--balance >= 0)
                continue;
            report(FindingKind::SemaphoreUnderflow,
                   "semaphore " + primName(prim) + ": wait #"
                       + std::to_string(waits)
                       + " granted with no resources available (initial "
                       + std::to_string(s.initial) + ", posts so far "
                       + std::to_string(post) + ")",
                   g.core, prim, g.tick,
                   {WitnessStep{g.core, prim, g.tick,
                                "over-granted wait"}});
            break;
        }
    }
}

// --------------------------------------------------------------------
// Logical state
// --------------------------------------------------------------------

bool
SyncStateModel::idle() const
{
    for (const LockState &s : locks_) {
        if (s.owned || !s.pendingReleases.empty())
            return false;
    }
    for (const SemState &s : sems_) {
        if (std::accumulate(s.balance.begin(), s.balance.end(),
                            std::int64_t{0})
            != 0) {
            return false;
        }
    }
    return true;
}

std::vector<std::int64_t>
SyncStateModel::logicalState() const
{
    // (tag, prim, core, value) for every non-rest component, in
    // primitive order; ticks are not part of it.
    std::vector<std::int64_t> out;
    auto nonZero = [&out](std::int64_t tag, std::uint64_t prim,
                          const auto &perCore, std::uint32_t firstCore) {
        for (std::size_t i = 0; i < perCore.size(); ++i) {
            if (perCore[i] != 0) {
                out.insert(out.end(),
                           {tag, static_cast<std::int64_t>(prim),
                            static_cast<std::int64_t>(firstCore + i),
                            static_cast<std::int64_t>(perCore[i])});
            }
        }
    };
    for (std::uint64_t prim = 0; prim < locks_.size(); ++prim) {
        const LockState &s = locks_[prim];
        if (s.owned) {
            out.insert(out.end(), {0, static_cast<std::int64_t>(prim),
                                   s.owner, 1});
        }
        for (const auto &[core, n] : s.pendingReleases)
            out.insert(out.end(),
                       {1, static_cast<std::int64_t>(prim), core, n});
    }
    for (std::uint64_t prim = 0; prim < sems_.size(); ++prim)
        nonZero(2, prim, sems_[prim].balance, 0);
    for (std::uint64_t prim = 0; prim < barriers_.size(); ++prim) {
        const BarrierState &b = barriers_[prim];
        nonZero(3, prim, b.arrivals, b.firstCore);
    }
    return out;
}

bool
SyncStateModel::sameStateAs(const SyncStateModel &other) const
{
    return logicalState() == other.logicalState();
}

} // namespace syncron::analysis
