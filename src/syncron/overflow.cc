/**
 * @file
 * SynCron overflow management (paper Section 4.3) and the MiSAR-style
 * overflow ablation (Section 6.7.3, Fig. 23).
 *
 * Integrated scheme: when an ST cannot hold a variable, the Master SE
 * keeps its state in a syncronVar record in its local memory. Overflowed
 * local SEs redirect requests with dedicated overflow opcodes; both sides
 * track the variable with their indexing counters, and the Master SE
 * sends decrease_indexing_counter messages when the episode ends.
 *
 * MiSAR-style ablation: on overflow the SEs abort the NDP cores to an
 * alternative software synchronization solution (one global server core,
 * or one per unit), and the cores notify the SEs to switch back when
 * done — reproducing the abort/notify traffic the paper charges against
 * that design.
 */

#include <algorithm>
#include <optional>

#include "common/bits.hh"
#include "common/log.hh"
#include "common/units.hh"
#include "durability/pm_model.hh"
#include "syncron/engine.hh"

namespace syncron::engine {

using sync::Op;
using sync::OpKind;
using sync::SyncMessage;
using sync::SyncRequest;

namespace {

/** Local opcode -> overflow opcode (Table 3). */
Op
overflowOpcodeFor(Op local)
{
    switch (local) {
      case Op::LockAcquireLocal: return Op::LockAcquireOverflow;
      case Op::LockReleaseLocal: return Op::LockReleaseOverflow;
      case Op::BarrierWaitLocalWithinUnit:
      case Op::BarrierWaitLocalAcrossUnits:
        return Op::BarrierWaitOverflow;
      case Op::SemWaitLocal: return Op::SemWaitOverflow;
      case Op::SemPostLocal: return Op::SemPostOverflow;
      case Op::CondWaitLocal: return Op::CondWaitOverflow;
      case Op::CondSignalLocal: return Op::CondSignalOverflow;
      case Op::CondBroadLocal: return Op::CondBroadOverflow;
      default:
        SYNCRON_PANIC("no overflow form for " << opName(local));
    }
}

/** Request opcode (local, global or overflow form) -> API operation. */
OpKind
opKindOf(Op op)
{
    switch (op) {
      case Op::LockAcquireLocal:
      case Op::LockAcquireGlobal:
      case Op::LockAcquireOverflow: return OpKind::LockAcquire;
      case Op::LockReleaseLocal:
      case Op::LockReleaseGlobal:
      case Op::LockReleaseOverflow: return OpKind::LockRelease;
      case Op::BarrierWaitLocalWithinUnit:
        return OpKind::BarrierWaitWithinUnit;
      case Op::BarrierWaitLocalAcrossUnits:
      case Op::BarrierWaitGlobal:
      case Op::BarrierWaitOverflow: return OpKind::BarrierWaitAcrossUnits;
      case Op::SemWaitLocal:
      case Op::SemWaitGlobal:
      case Op::SemWaitOverflow: return OpKind::SemWait;
      case Op::SemPostLocal:
      case Op::SemPostGlobal:
      case Op::SemPostOverflow: return OpKind::SemPost;
      case Op::CondWaitLocal:
      case Op::CondWaitGlobal:
      case Op::CondWaitOverflow: return OpKind::CondWait;
      case Op::CondSignalLocal:
      case Op::CondSignalGlobal:
      case Op::CondSignalOverflow: return OpKind::CondSignal;
      case Op::CondBroadLocal:
      case Op::CondBroadGlobal:
      case Op::CondBroadOverflow: return OpKind::CondBroadcast;
      default:
        SYNCRON_PANIC("not a request opcode: " << opName(op));
    }
}

/** Overflow grant -> the global opcode that grants a whole unit. */
Op
unitGrantFor(Op grant)
{
    switch (grant) {
      case Op::LockGrantOverflow: return Op::LockGrantGlobal;
      case Op::SemGrantOverflow: return Op::SemGrantGlobal;
      case Op::CondGrantOverflow: return Op::CondGrantGlobal;
      case Op::CondBroadOverflow: return Op::CondBroadGlobal;
      case Op::BarrierDepartureOverflow: return Op::BarrierDepartGlobal;
      default:
        SYNCRON_PANIC("not an overflow grant: " << opName(grant));
    }
}

std::uint32_t
packSeCore(UnitId se, unsigned localCore)
{
    return se * 256 + localCore;
}

} // namespace

bool
SynCronBackend::MemVar::idle() const
{
    if (st.ownerKind != LockOwner::None || st.globalWaitBits != 0
        || st.barrierArrived != 0 || st.semDelta != 0)
        return false;
    for (std::uint16_t bits : coreBits) {
        if (bits != 0)
            return false;
    }
    return true;
}

Tick
SynCronBackend::memVarAccess(Station &s, Addr var, Tick start)
{
    // The SPU of the Master SE reads and writes the syncronVar record in
    // its local memory arrays (Section 4.3.2).
    Tick t = machine_.memoryAccess(start, s.unit, var, false,
                                   sync::kSyncronVarBytes);
    t = machine_.memoryAccess(t, s.unit, var, true,
                              sync::kSyncronVarBytes);
    machine_.stats().syncMemAccesses += 2;
    if (persistEager_) {
        durability::chargePmWrite(machine_.stats(),
                                  durability::kMemVarBits);
    }
    return t;
}

// --------------------------------------------------------------------
// Overflowed local SE: redirect to the Master SE
// --------------------------------------------------------------------

void
SynCronBackend::misarDivertLocal(Station &s, const SyncMessage &m,
                                 Tick done)
{
    const Addr var = m.addr;
    const OpKind kind = opKindOf(m.opcode);
    const CoreId core = globalCoreId(s.unit, m.coreId % 256);
    // Re-type the in-flight hardware message for the software fallback.
    const SyncRequest req = SyncRequest::fromMessageInfo(kind, var, m.info);
    sim::Gate *gate = nullptr;
    if (sync::isAcquireType(kind))
        gate = takePendingGate(core, gateKeyFor(req));
    SoftServer &server = softServerFor(var);
    const Tick arrival = machine_.routeMessage(done, s.unit, server.unit,
                                               sync::kSyncReqBits);
    ++machine_.stats().syncOverflowMsgs;
    ++misarPending_[var];
    machine_.eq(server.unit).schedule(arrival, [this, &server, req, core,
                                                gate] {
        misarProcess(server, req, core, gate);
    });
}

bool
SynCronBackend::misarCanEnter(Addr var) const
{
    // A variable may enter software mode only when it has no hardware
    // state anywhere: no ST entry at any station, no in-memory record at
    // the master, and no redirected operations in flight. (The real
    // MiSAR protocol quiesces participants with aborts; the model
    // requires quiescence up front instead.)
    if (stations_[masterOf(var)]->memVars.count(var) != 0)
        return false;
    for (const auto &station : stations_) {
        if (station->table.contains(var)
            || station->hasRedirected(var))
            return false;
    }
    return true;
}

void
SynCronBackend::redirectOverflow(Station &s, const SyncMessage &m,
                                 Tick done)
{
    const bool condOp = m.opcode == Op::CondWaitLocal
                        || m.opcode == Op::CondSignalLocal
                        || m.opcode == Op::CondBroadLocal;
    if (misarActive() && !condOp
        && (misarVars_.count(m.addr) != 0 || misarCanEnter(m.addr))) {
        // MiSAR-style ablation: divert to the software fallback instead
        // of the integrated memory path.
        if (misarVars_.count(m.addr) == 0)
            misarEnter(m.addr, done);
        misarDivertLocal(s, m, done);
        return;
    }

    SyncMessage fwd;
    fwd.addr = m.addr;
    fwd.opcode = overflowOpcodeFor(m.opcode);
    fwd.coreId = packSeCore(s.unit, m.coreId);
    fwd.info = m.info;
    // Track outstanding redirected acquires exactly (see Station).
    if (sync::isAcquireOp(fwd.opcode))
        s.redirectedInc(m.addr);
    else if (fwd.opcode == Op::LockReleaseOverflow)
        s.redirectedDec(m.addr);
    sendToStation(s.unit, masterOf(m.addr), fwd, done);
}

// --------------------------------------------------------------------
// Master SE: memory-backed servicing
// --------------------------------------------------------------------

void
SynCronBackend::memOp(Station &s, const SyncMessage &m, Tick done)
{
    MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                    .first->second;
    // Whom the opcode names: a local core, a whole SE (global), or a
    // redirected core of an overflowed SE.
    Requester from{s.unit, static_cast<int>(m.coreId)};
    if (sync::isOverflowOp(m.opcode))
        from = Requester{m.coreId / 256, static_cast<int>(m.coreId % 256)};
    else if (sync::isGlobalOp(m.opcode))
        from = Requester{m.coreId, -1};

    if (sync::isOverflowOp(m.opcode)) {
        SYNCRON_ASSERT(isMaster(s, m.addr),
                       "overflow message at non-master SE");
        // If the Master SE still holds an ST entry for this variable,
        // its state migrates to the in-memory record: core-granular
        // tracking for the overflowed unit cannot be expressed in the ST.
        if (StEntry *e = s.table.find(m.addr)) {
            v.st.ownerKind = e->ownerKind;
            v.st.ownerId = e->ownerKind == LockOwner::LocalCore
                               ? packSeCore(s.unit, e->ownerId)
                               : e->ownerId;
            v.st.globalWaitBits = e->globalWaitBits;
            v.coreBits[s.unit] |=
                static_cast<std::uint16_t>(e->localWaitBits);
            v.st.barrierArrived = e->barrierArrived;
            // Unit-aggregates already arrived keep their headcount.
            v.st.barrierArrived += e->barrierUnitsArrived
                                   * machine_.config().clientCoresPerUnit;
            v.st.semDelta = e->semDelta;
            v.st.tableInfo = e->tableInfo;
            *e = StEntry{};
            e->addr = m.addr;
            e->occupied = true;
            s.table.release(m.addr, machine_.eq(s.unit).now());
        }
        v.overflowInfo |= static_cast<std::uint16_t>(1u << from.unit);
    }

    v.st.addr = m.addr;
    done = memVarAccess(s, m.addr, done);
    s.busyUntil = std::max(s.busyUntil, done);

    // The Master SE's indexing counter follows the acquire-type
    // operations serviced here (drained again at cleanup).
    const auto acquired = [&] {
        s.counters.increment(m.addr);
        ++v.outstanding;
    };
    const auto released = [&] {
        s.counters.decrement(m.addr);
        if (v.outstanding > 0)
            --v.outstanding;
    };
    const auto ownerId = [](Requester r) {
        return r.unitLevel() ? r.unit
                             : packSeCore(r.unit,
                                          static_cast<unsigned>(r.core));
    };
    const auto grantLock = [&](Requester to) {
        v.st.ownerKind =
            to.unitLevel() ? LockOwner::Unit : LockOwner::LocalCore;
        v.st.ownerId = ownerId(to);
        memGrantTo(s, v, Op::LockGrantOverflow, to, done);
    };

    switch (const OpKind kind = opKindOf(m.opcode)) {
      case OpKind::LockAcquire:
        acquired();
        if (v.st.ownerKind == LockOwner::None)
            grantLock(from);
        else
            memEnqueue(v, from);
        break;

      case OpKind::LockRelease:
        released();
        SYNCRON_ASSERT(v.st.ownerKind
                               == (from.unitLevel() ? LockOwner::Unit
                                                    : LockOwner::LocalCore)
                           && v.st.ownerId == ownerId(from),
                       "memory-mode release by non-owner "
                           << (from.unitLevel() ? "unit " : "core ")
                           << ownerId(from));
        v.st.ownerKind = LockOwner::None;
        if (std::optional<Requester> next = memNextWaiter(s, v))
            grantLock(*next);
        break;

      case OpKind::BarrierWaitWithinUnit:
      case OpKind::BarrierWaitAcrossUnits: {
        const std::uint64_t total = m.info != 0 ? m.info : v.st.tableInfo;
        v.st.tableInfo = total;
        acquired();
        memEnqueue(v, from);
        // A unit-level arrival of the two-level protocol stands for all
        // of its unit's cores.
        v.st.barrierArrived += from.unitLevel() && hierBarrier(total)
                                   ? machine_.config().clientCoresPerUnit
                                   : 1;
        if (v.st.barrierArrived < total)
            break;
        std::uint64_t units = v.st.globalWaitBits;
        v.st.globalWaitBits = 0;
        while (units != 0) {
            const unsigned j = lowestSetBit(units);
            units = withoutBit(units, j);
            memGrantTo(s, v, Op::BarrierDepartureOverflow, Requester{j, -1},
                       done);
        }
        for (UnitId j = 0; j < v.coreBits.size(); ++j) {
            std::uint16_t bits = v.coreBits[j];
            v.coreBits[j] = 0;
            while (bits != 0) {
                const unsigned c = lowestSetBit(bits);
                bits = static_cast<std::uint16_t>(withoutBit(bits, c));
                memGrantTo(s, v, Op::BarrierDepartureOverflow,
                           Requester{j, static_cast<int>(c)}, done);
            }
        }
        v.st.barrierArrived = 0;
        // Barrier departures carry the release semantics: drain the
        // episode's acquire contributions from the indexing counter.
        while (v.outstanding > 0) {
            s.counters.decrement(m.addr);
            --v.outstanding;
        }
        break;
      }

      case OpKind::SemWait:
        acquired();
        if (v.st.semAvail(m.semResources()) > 0) {
            --v.st.semDelta;
            memGrantTo(s, v, Op::SemGrantOverflow, from, done);
        } else {
            memEnqueue(v, from);
        }
        break;

      case OpKind::SemPost:
        released();
        // A global post may return a batch grant's excess, its count in
        // MessageInfo (as at an ST-resident master).
        for (std::uint64_t n = m.info > 0 ? m.info : 1; n > 0; --n) {
            if (std::optional<Requester> next = memNextWaiter(s, v))
                memGrantTo(s, v, Op::SemGrantOverflow, *next, done);
            else
                ++v.st.semDelta;
        }
        break;

      case OpKind::CondWait:
        acquired();
        v.st.tableInfo = m.info; // associated lock address
        memEnqueue(v, from);
        break;

      case OpKind::CondSignal:
      case OpKind::CondBroadcast: {
        const bool broadcast = kind == OpKind::CondBroadcast;
        released();
        for (bool first = true; std::optional<Requester> next =
                                    memNextWaiter(s, v);
             first = false) {
            // A unit's SE takes a broadcast as a wake-all grant.
            memGrantTo(s, v,
                       broadcast && next->unitLevel()
                           ? Op::CondBroadOverflow
                           : Op::CondGrantOverflow,
                       *next, done);
            // Each wake beyond the one covered by the signal's own
            // release-decrement drains another acquire contribution.
            if (!first)
                released();
            if (!broadcast)
                break;
        }
        break;
      }
    }
    memMaybeCleanup(s, m.addr, v, done);
}

void
SynCronBackend::memEnqueue(MemVar &v, Requester r)
{
    if (r.unitLevel()) {
        v.st.globalWaitBits = withBit(v.st.globalWaitBits, r.unit);
    } else {
        v.coreBits[r.unit] = static_cast<std::uint16_t>(
            withBit(v.coreBits[r.unit], static_cast<unsigned>(r.core)));
    }
}

std::optional<SynCronBackend::Requester>
SynCronBackend::memNextWaiter(const Station &s, MemVar &v)
{
    UnitId j = s.unit;
    if (v.coreBits[j] == 0) {
        j = 0;
        while (j < v.coreBits.size() && v.coreBits[j] == 0)
            ++j;
    }
    if (j < v.coreBits.size()) {
        const unsigned c = lowestSetBit(v.coreBits[j]);
        v.coreBits[j] =
            static_cast<std::uint16_t>(withoutBit(v.coreBits[j], c));
        return Requester{j, static_cast<int>(c)};
    }
    if (v.st.globalWaitBits == 0)
        return std::nullopt;
    const unsigned u = lowestSetBit(v.st.globalWaitBits);
    v.st.globalWaitBits = withoutBit(v.st.globalWaitBits, u);
    return Requester{u, -1};
}

void
SynCronBackend::memGrantTo(Station &s, MemVar &v, Op grantOp, Requester to,
                           Tick done)
{
    if (to.unitLevel()) {
        sendGlobal(s, to.unit, unitGrantFor(grantOp), v.st.addr, done,
                   v.st.tableInfo);
    } else if (to.unit != s.unit) {
        SyncMessage grant;
        grant.addr = v.st.addr;
        grant.opcode = grantOp;
        grant.coreId = packSeCore(to.unit, static_cast<unsigned>(to.core));
        grant.info = v.st.tableInfo;
        sendToStation(s.unit, to.unit, grant, done);
    } else if (grantOp == Op::CondGrantOverflow) {
        // Master's own local core woken from a condition variable:
        // re-acquire the associated lock on its behalf.
        internalLockOp(s, Op::LockAcquireLocal,
                       static_cast<unsigned>(to.core),
                       static_cast<Addr>(v.st.tableInfo), done);
    } else {
        grantCore(s.unit,
                  globalCoreId(s.unit, static_cast<unsigned>(to.core)),
                  v.st.addr, done);
    }
}

void
SynCronBackend::memMaybeCleanup(Station &s, Addr var, MemVar &v, Tick done)
{
    if (!v.idle())
        return;
    // Episode over: notify every overflowed SE to decrease its indexing
    // counter (Section 4.3.2), flush the master's residual contribution,
    // and drop the in-memory record so future requests use the ST again.
    std::uint16_t info = v.overflowInfo;
    while (info != 0) {
        const unsigned j = lowestSetBit(info);
        info = static_cast<std::uint16_t>(withoutBit(info, j));
        if (j != s.unit)
            sendGlobal(s, j, Op::DecreaseIndexingCounter, var, done);
    }
    while (v.outstanding > 0) {
        s.counters.decrement(var);
        --v.outstanding;
    }
    s.memVars.erase(var);
}

void
SynCronBackend::onOverflowGrant(Station &s, const SyncMessage &m,
                                Tick done)
{
    const unsigned core = m.coreId % 256;
    SYNCRON_ASSERT(m.coreId / 256 == s.unit,
                   "overflow grant delivered to wrong SE");
    // Every grant but a lock's ends a redirected acquire; a lock's ends
    // at its release, which decrements the counter instead.
    if (m.opcode != Op::LockGrantOverflow) {
        s.counters.decrement(m.addr);
        s.redirectedDec(m.addr);
    }
    if (m.opcode == Op::CondGrantOverflow) {
        // Re-acquire the associated lock before cond_wait returns.
        internalLockOp(s, Op::LockAcquireLocal, core, m.condLockAddr(),
                       done);
    } else {
        grantCore(s.unit, globalCoreId(s.unit, core), m.addr, done);
    }
}

// --------------------------------------------------------------------
// MiSAR-style overflow ablation
// --------------------------------------------------------------------

bool
SynCronBackend::misarActive() const
{
    return opts_.overflow != OverflowPolicy::Integrated;
}

SynCronBackend::SoftServer &
SynCronBackend::softServerFor(Addr var)
{
    // The software fallback runs every diverted op through one shared
    // server on its unit's queue with synchronous routeMessage hops —
    // a single-queue path. Under sharding that would touch other
    // shards' crossbars and queues outside the keyed delivery order, so
    // fail loudly instead. (Both divert entry points come through here.)
    SYNCRON_ASSERT(machine_.numShards() == 1,
                   "ST overflow software fallback is a single-queue "
                   "path; run overflow configs with --sim-shards=1");
    if (opts_.overflow == OverflowPolicy::MisarCentral)
        return softServers_[0];
    return softServers_[masterOf(var)];
}

void
SynCronBackend::misarEnter(Addr var, Tick when)
{
    misarVars_.insert(var);
    // Abort broadcast: every SE notifies its local client cores to use
    // the alternative software solution, and the cores acknowledge —
    // the communication cost the paper charges against MiSAR's scheme.
    // Software servicing of the variable cannot start before the whole
    // round trip completes.
    const SystemConfig &cfg = machine_.config();
    Tick ready = when;
    for (UnitId u = 0; u < cfg.numUnits; ++u) {
        for (unsigned c = 0; c < cfg.clientCoresPerUnit; ++c) {
            Tick t = machine_.routeMessage(when, u, u,
                                           sync::kSyncRespBits);
            t = machine_.routeMessage(t, u, u, sync::kSyncReqBits);
            machine_.stats().syncOverflowMsgs += 2;
            ready = std::max(ready, t);
        }
    }
    misarReadyAt_[var] = ready;
}

void
SynCronBackend::misarRequest(core::Core &core, const SyncRequest &req,
                             sim::Gate *gate)
{
    // Cores in software mode bypass the SEs entirely. request() just
    // registered the pending gate; reclaim exactly that entry (matching
    // by identity, since a pipelining core may hold several operations
    // on the same variable in flight).
    sim::Gate *acquireGate = nullptr;
    if (req.acquireType()) {
        auto &pending = gates_[core.id()];
        auto it = pending.begin();
        while (it != pending.end() && it->gate != gate)
            ++it;
        SYNCRON_ASSERT(it != pending.end(), "gate bookkeeping mismatch");
        pending.erase(it);
        acquireGate = gate;
    }
    SoftServer &server = softServerFor(req.var());
    const Tick arrival = machine_.routeMessage(
        machine_.eq(core.unit()).now(), core.unit(), server.unit,
        sync::kSyncReqBits);
    ++machine_.stats().syncOverflowMsgs;
    ++misarPending_[req.var()];
    const CoreId coreId = core.id();
    machine_.eq(server.unit).schedule(arrival, [this, &server, req, coreId,
                                                acquireGate] {
        misarProcess(server, req, coreId, acquireGate);
    });
}

void
SynCronBackend::misarProcess(SoftServer &server, const SyncRequest &req,
                             CoreId core, sim::Gate *gate)
{
    const Addr var = req.var();
    const SystemConfig &cfg = machine_.config();
    const Tick now = machine_.eq(server.unit).now();
    Tick start = std::max(now, server.busyUntil);
    if (auto it = misarReadyAt_.find(var); it != misarReadyAt_.end())
        start = std::max(start, it->second);
    Tick done = start
                + static_cast<Tick>(cfg.serverSwOverheadCycles)
                      * kCoreClock.period();

    // Software RMW on the variable through the server's L1.
    const Tick hit = static_cast<Tick>(server.l1->params().hitCycles)
                     * kCoreClock.period();
    cache::CacheAccessResult res = server.l1->access(var, false);
    done += hit;
    if (!res.hit) {
        done = machine_.memoryAccess(done, server.unit, lineAlign(var),
                                     false, kCacheLineBytes);
        if (res.writeback) {
            machine_.memoryAccess(start, server.unit, res.victimAddr,
                                  true, kCacheLineBytes);
        }
    }
    server.l1->access(var, true);
    done += hit;
    server.busyUntil = done;

    machine_.eq(server.unit).schedule(done, [this, &server, req, core,
                                             gate] {
        const Addr var = req.var();
        const Tick when = machine_.eq(server.unit).now();
        // Opening a gate only schedules its waiter's resume, so nothing
        // re-enters apply() while the grants are walked.
        auto grants = misarState_.apply(req, core, gate);
        for (const sync::SyncGrant &g : grants) {
            const UnitId coreUnit = g.core / machine_.config().coresPerUnit;
            const Tick arrival = machine_.routeMessage(
                when, server.unit, coreUnit, sync::kSyncRespBits);
            ++machine_.stats().syncOverflowMsgs;
            SYNCRON_ASSERT(g.gate != nullptr, "grant without gate");
            g.gate->open(0, arrival - when);
        }
        auto pending = misarPending_.find(var);
        SYNCRON_ASSERT(pending != misarPending_.end()
                           && pending->second > 0,
                       "misar pending-op underflow");
        if (--pending->second == 0)
            misarPending_.erase(pending);
        misarMaybeExit(var, when);
    });
}

void
SynCronBackend::misarMaybeExit(Addr var, Tick when)
{
    // A semaphore leaves software mode only with its count back at its
    // initial resources (idle()): the hardware re-seeds a fresh entry
    // from the next wait's resources, so leaving then drops nothing.
    if (misarVars_.count(var) == 0 || !misarState_.idle(var)
        || misarPending_.count(var) != 0)
        return;
    misarVars_.erase(var);
    misarReadyAt_.erase(var);
    misarState_.destroy(var);
    // Switch-back notifications: the cores tell the SEs to resume
    // hardware synchronization; each SE processes one message per local
    // client core (occupying its SPU) and decreases its counter.
    const SystemConfig &cfg = machine_.config();
    for (UnitId u = 0; u < cfg.numUnits; ++u) {
        Station &st = *stations_[u];
        for (unsigned c = 0; c < cfg.clientCoresPerUnit; ++c) {
            const Tick t =
                machine_.routeMessage(when, u, u, sync::kSyncReqBits);
            ++machine_.stats().syncOverflowMsgs;
            st.busyUntil = std::max(st.busyUntil, t)
                           + baseServiceTicks(st, var);
        }
        st.counters.decrement(var);
    }
}

} // namespace syncron::engine
