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

/** Local opcode -> API operation (for the MiSAR software fallback). */
OpKind
opKindOfLocal(Op local)
{
    switch (local) {
      case Op::LockAcquireLocal: return OpKind::LockAcquire;
      case Op::LockReleaseLocal: return OpKind::LockRelease;
      case Op::BarrierWaitLocalWithinUnit:
        return OpKind::BarrierWaitWithinUnit;
      case Op::BarrierWaitLocalAcrossUnits:
        return OpKind::BarrierWaitAcrossUnits;
      case Op::SemWaitLocal: return OpKind::SemWait;
      case Op::SemPostLocal: return OpKind::SemPost;
      case Op::CondWaitLocal: return OpKind::CondWait;
      case Op::CondSignalLocal: return OpKind::CondSignal;
      case Op::CondBroadLocal: return OpKind::CondBroadcast;
      default:
        SYNCRON_PANIC("not a local opcode: " << opName(local));
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
        || st.barrierArrived != 0 || st.semInit)
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
    machine_.statsFor(s.unit).syncMemAccesses += 2;
    if (persistEager_) {
        durability::chargePmWrite(machine_.statsFor(s.unit),
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
    const OpKind kind = opKindOfLocal(m.opcode);
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
    machine_.eq().schedule(arrival, [this, &server, req, core, gate] {
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
SynCronBackend::handleOverflowAtMaster(Station &s, const SyncMessage &m,
                                       Tick done)
{
    SYNCRON_ASSERT(isMaster(s, m.addr),
                   "overflow message at non-master SE");

    // If the Master SE still holds an ST entry for this variable, its
    // state migrates to the in-memory record: core-granular tracking for
    // the overflowed unit cannot be expressed in the ST.
    MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                    .first->second;
    if (StEntry *e = s.table.find(m.addr)) {
        v.st.ownerKind = e->ownerKind;
        v.st.ownerId = e->ownerKind == LockOwner::LocalCore
                           ? packSeCore(s.unit, e->ownerId)
                           : e->ownerId;
        v.st.globalWaitBits = e->globalWaitBits;
        v.coreBits[s.unit] |= static_cast<std::uint16_t>(e->localWaitBits);
        v.st.barrierArrived = e->barrierArrived;
        // Unit-aggregates already arrived keep their headcount.
        v.st.barrierArrived +=
            e->barrierUnitsArrived * machine_.config().clientCoresPerUnit;
        v.st.semInit = e->semInit;
        v.st.semAvail = e->semAvail;
        v.st.tableInfo = e->tableInfo;
        *e = StEntry{};
        e->addr = m.addr;
        e->occupied = true;
        s.table.release(m.addr, machine_.eq(s.unit).now());
    }

    const UnitId fromSe = m.coreId / 256;
    const int fromCore = static_cast<int>(m.coreId % 256);
    v.overflowInfo |= static_cast<std::uint16_t>(1u << fromSe);

    switch (m.opcode) {
      case Op::LockAcquireOverflow:
        memLockOp(s, v, m, true, fromSe, fromCore, false, done);
        break;
      case Op::LockReleaseOverflow:
        memLockOp(s, v, m, false, fromSe, fromCore, false, done);
        break;
      case Op::BarrierWaitOverflow:
        memBarrierOp(s, v, m, fromSe, fromCore, false, done);
        break;
      case Op::SemWaitOverflow:
        memSemOp(s, v, m, true, fromSe, fromCore, false, done);
        break;
      case Op::SemPostOverflow:
        memSemOp(s, v, m, false, fromSe, fromCore, false, done);
        break;
      case Op::CondWaitOverflow:
        memCondOp(s, v, m, OpKind::CondWait, fromSe, fromCore, false,
                  done);
        break;
      case Op::CondSignalOverflow:
        memCondOp(s, v, m, OpKind::CondSignal, fromSe, fromCore, false,
                  done);
        break;
      case Op::CondBroadOverflow:
        memCondOp(s, v, m, OpKind::CondBroadcast, fromSe, fromCore, false,
                  done);
        break;
      default:
        SYNCRON_PANIC("unexpected overflow opcode "
                      << opName(m.opcode));
    }
}

void
SynCronBackend::memGrantTo(Station &s, MemVar &v, Op grantOp, UnitId unit,
                           int coreBit, bool unitLevel, Tick done)
{
    if (unitLevel) {
        SyncMessage grant;
        grant.addr = v.st.addr;
        grant.opcode = grantOp == Op::LockGrantOverflow ? Op::LockGrantGlobal
                       : grantOp == Op::SemGrantOverflow ? Op::SemGrantGlobal
                       : grantOp == Op::CondGrantOverflow
                           ? Op::CondGrantGlobal
                           : Op::BarrierDepartGlobal;
        grant.coreId = s.unit;
        grant.info = v.st.tableInfo;
        sendToStation(s.unit, unit, grant, done);
        return;
    }
    if (unit == s.unit && grantOp != Op::CondGrantOverflow) {
        grantCore(s.unit, globalCoreId(unit, coreBit), v.st.addr, done);
        return;
    }
    if (unit == s.unit) {
        // Master's own local core woken from a condition variable:
        // re-acquire the associated lock on its behalf.
        internalLockAcquire(s, coreBit,
                            static_cast<Addr>(v.st.tableInfo), done);
        return;
    }
    SyncMessage grant;
    grant.addr = v.st.addr;
    grant.opcode = grantOp;
    grant.coreId = packSeCore(unit, coreBit);
    grant.info = v.st.tableInfo;
    sendToStation(s.unit, unit, grant, done);
}

void
SynCronBackend::memNextLockGrant(Station &s, MemVar &v, Tick done)
{
    // Master-local cores first (Section 3.2's local priority), then the
    // other units' core-granular waiters, then unit-granular waiters.
    if (v.coreBits[s.unit] != 0) {
        const unsigned c = lowestSetBit(v.coreBits[s.unit]);
        v.coreBits[s.unit] =
            static_cast<std::uint16_t>(withoutBit(v.coreBits[s.unit], c));
        v.st.ownerKind = LockOwner::LocalCore;
        v.st.ownerId = packSeCore(s.unit, c);
        memGrantTo(s, v, Op::LockGrantOverflow, s.unit,
                   static_cast<int>(c), false, done);
        return;
    }
    for (UnitId j = 0; j < v.coreBits.size(); ++j) {
        if (v.coreBits[j] != 0) {
            const unsigned c = lowestSetBit(v.coreBits[j]);
            v.coreBits[j] =
                static_cast<std::uint16_t>(withoutBit(v.coreBits[j], c));
            v.st.ownerKind = LockOwner::LocalCore;
            v.st.ownerId = packSeCore(j, c);
            memGrantTo(s, v, Op::LockGrantOverflow, j,
                       static_cast<int>(c), false, done);
            return;
        }
    }
    if (v.st.globalWaitBits != 0) {
        const unsigned j = lowestSetBit(v.st.globalWaitBits);
        v.st.globalWaitBits = withoutBit(v.st.globalWaitBits, j);
        v.st.ownerKind = LockOwner::Unit;
        v.st.ownerId = j;
        memGrantTo(s, v, Op::LockGrantOverflow, j, -1, true, done);
        return;
    }
    v.st.ownerKind = LockOwner::None;
}

void
SynCronBackend::memLockOp(Station &s, MemVar &v, const SyncMessage &m,
                          bool acquire, UnitId fromUnit, int fromCore,
                          bool unitLevel, Tick done)
{
    v.st.addr = m.addr;
    const Tick done2 = memVarAccess(s, m.addr, done);
    s.busyUntil = std::max(s.busyUntil, done2);

    if (acquire) {
        s.counters.increment(m.addr);
        ++v.outstanding;
        if (v.st.ownerKind == LockOwner::None) {
            if (unitLevel) {
                v.st.ownerKind = LockOwner::Unit;
                v.st.ownerId = fromUnit;
                memGrantTo(s, v, Op::LockGrantOverflow, fromUnit, -1, true,
                           done2);
            } else {
                v.st.ownerKind = LockOwner::LocalCore;
                v.st.ownerId = packSeCore(fromUnit, fromCore);
                memGrantTo(s, v, Op::LockGrantOverflow, fromUnit, fromCore,
                           false, done2);
            }
        } else if (unitLevel) {
            v.st.globalWaitBits = withBit(v.st.globalWaitBits, fromUnit);
        } else {
            v.coreBits[fromUnit] = static_cast<std::uint16_t>(
                withBit(v.coreBits[fromUnit], fromCore));
        }
    } else {
        s.counters.decrement(m.addr);
        if (v.outstanding > 0)
            --v.outstanding;
        if (unitLevel) {
            SYNCRON_ASSERT(v.st.ownerKind == LockOwner::Unit
                               && v.st.ownerId == fromUnit,
                           "memory-mode release by non-owner unit");
        } else {
            SYNCRON_ASSERT(
                v.st.ownerKind == LockOwner::LocalCore
                    && v.st.ownerId
                           == packSeCore(fromUnit,
                                         static_cast<unsigned>(fromCore)),
                "memory-mode release by non-owner core");
        }
        v.st.ownerKind = LockOwner::None;
        memNextLockGrant(s, v, done2);
    }
    memMaybeCleanup(s, m.addr, v, done2);
}

void
SynCronBackend::memBarrierOp(Station &s, MemVar &v, const SyncMessage &m,
                             UnitId fromUnit, int fromCore, bool unitLevel,
                             Tick done)
{
    v.st.addr = m.addr;
    const Tick done2 = memVarAccess(s, m.addr, done);
    s.busyUntil = std::max(s.busyUntil, done2);

    const SystemConfig &cfg = machine_.config();
    const std::uint64_t total = m.info != 0 ? m.info : v.st.tableInfo;
    v.st.tableInfo = total;
    const bool hier =
        total == cfg.totalClientCores() && cfg.numUnits > 1;

    s.counters.increment(m.addr);
    ++v.outstanding;

    if (unitLevel) {
        v.st.globalWaitBits = withBit(v.st.globalWaitBits, fromUnit);
        v.st.barrierArrived += hier ? cfg.clientCoresPerUnit : 1;
    } else {
        v.coreBits[fromUnit] = static_cast<std::uint16_t>(
            withBit(v.coreBits[fromUnit], fromCore));
        ++v.st.barrierArrived;
    }

    if (v.st.barrierArrived >= total) {
        std::uint64_t units = v.st.globalWaitBits;
        v.st.globalWaitBits = 0;
        while (units != 0) {
            const unsigned j = lowestSetBit(units);
            units = withoutBit(units, j);
            memGrantTo(s, v, Op::BarrierDepartureOverflow, j, -1, true,
                       done2);
        }
        for (UnitId j = 0; j < v.coreBits.size(); ++j) {
            std::uint16_t bits = v.coreBits[j];
            v.coreBits[j] = 0;
            while (bits != 0) {
                const unsigned c = lowestSetBit(bits);
                bits = static_cast<std::uint16_t>(withoutBit(bits, c));
                if (j == s.unit) {
                    grantCore(s.unit, globalCoreId(j, c), m.addr, done2);
                } else {
                    memGrantTo(s, v, Op::BarrierDepartureOverflow, j,
                               static_cast<int>(c), false, done2);
                }
            }
        }
        v.st.barrierArrived = 0;
        // Barrier departures carry the release semantics: drain the
        // episode's acquire contributions from the indexing counter.
        while (v.outstanding > 0) {
            s.counters.decrement(m.addr);
            --v.outstanding;
        }
    }
    memMaybeCleanup(s, m.addr, v, done2);
}

void
SynCronBackend::memSemOp(Station &s, MemVar &v, const SyncMessage &m,
                         bool wait, UnitId fromUnit, int fromCore,
                         bool unitLevel, Tick done)
{
    v.st.addr = m.addr;
    const Tick done2 = memVarAccess(s, m.addr, done);
    s.busyUntil = std::max(s.busyUntil, done2);

    if (!v.st.semInit) {
        v.st.semInit = true;
        v.st.semAvail = wait ? static_cast<std::int64_t>(m.info) : 0;
    }

    if (wait) {
        s.counters.increment(m.addr);
        ++v.outstanding;
        if (v.st.semAvail > 0) {
            --v.st.semAvail;
            memGrantTo(s, v, Op::SemGrantOverflow, fromUnit, fromCore,
                       unitLevel, done2);
        } else if (unitLevel) {
            v.st.globalWaitBits = withBit(v.st.globalWaitBits, fromUnit);
        } else {
            v.coreBits[fromUnit] = static_cast<std::uint16_t>(
                withBit(v.coreBits[fromUnit], fromCore));
        }
        return;
    }

    // Post.
    s.counters.decrement(m.addr);
    if (v.outstanding > 0)
        --v.outstanding;
    if (v.coreBits[s.unit] != 0) {
        const unsigned c = lowestSetBit(v.coreBits[s.unit]);
        v.coreBits[s.unit] =
            static_cast<std::uint16_t>(withoutBit(v.coreBits[s.unit], c));
        grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done2);
        return;
    }
    for (UnitId j = 0; j < v.coreBits.size(); ++j) {
        if (v.coreBits[j] != 0) {
            const unsigned c = lowestSetBit(v.coreBits[j]);
            v.coreBits[j] =
                static_cast<std::uint16_t>(withoutBit(v.coreBits[j], c));
            memGrantTo(s, v, Op::SemGrantOverflow, j, static_cast<int>(c),
                       false, done2);
            return;
        }
    }
    if (v.st.globalWaitBits != 0) {
        const unsigned j = lowestSetBit(v.st.globalWaitBits);
        v.st.globalWaitBits = withoutBit(v.st.globalWaitBits, j);
        memGrantTo(s, v, Op::SemGrantOverflow, j, -1, true, done2);
        return;
    }
    ++v.st.semAvail;
}

void
SynCronBackend::memCondOp(Station &s, MemVar &v, const SyncMessage &m,
                          OpKind kind, UnitId fromUnit, int fromCore,
                          bool unitLevel, Tick done)
{
    v.st.addr = m.addr;
    const Tick done2 = memVarAccess(s, m.addr, done);
    s.busyUntil = std::max(s.busyUntil, done2);

    if (kind == OpKind::CondWait) {
        s.counters.increment(m.addr);
        ++v.outstanding;
        v.st.tableInfo = m.info; // associated lock address
        if (unitLevel) {
            v.st.globalWaitBits = withBit(v.st.globalWaitBits, fromUnit);
        } else {
            v.coreBits[fromUnit] = static_cast<std::uint16_t>(
                withBit(v.coreBits[fromUnit], fromCore));
        }
        if (v.st.condPending > 0) {
            // A signal raced ahead of this wait: wake immediately.
            --v.st.condPending;
            SyncMessage sig;
            sig.addr = m.addr;
            sig.info = v.st.tableInfo;
            memCondOp(s, v, sig, OpKind::CondSignal, s.unit, -1, false,
                      done);
        }
        return;
    }

    // Signal / broadcast.
    const bool broadcast = kind == OpKind::CondBroadcast;
    s.counters.decrement(m.addr);
    if (v.outstanding > 0)
        --v.outstanding;

    bool first = true;
    for (;;) {
        bool woke = false;
        if (v.coreBits[s.unit] != 0) {
            const unsigned c = lowestSetBit(v.coreBits[s.unit]);
            v.coreBits[s.unit] = static_cast<std::uint16_t>(
                withoutBit(v.coreBits[s.unit], c));
            memGrantTo(s, v, Op::CondGrantOverflow, s.unit,
                       static_cast<int>(c), false, done2);
            woke = true;
        } else {
            for (UnitId j = 0; j < v.coreBits.size() && !woke; ++j) {
                if (v.coreBits[j] != 0) {
                    const unsigned c = lowestSetBit(v.coreBits[j]);
                    v.coreBits[j] = static_cast<std::uint16_t>(
                        withoutBit(v.coreBits[j], c));
                    memGrantTo(s, v, Op::CondGrantOverflow, j,
                               static_cast<int>(c), false, done2);
                    woke = true;
                }
            }
            if (!woke && v.st.globalWaitBits != 0) {
                const unsigned j = lowestSetBit(v.st.globalWaitBits);
                v.st.globalWaitBits = withoutBit(v.st.globalWaitBits, j);
                memGrantTo(s, v,
                           broadcast ? Op::CondBroadOverflow
                                     : Op::CondGrantOverflow,
                           j, -1, true, done2);
                woke = true;
            }
        }
        if (!woke)
            break;
        if (!first) {
            // Each wake beyond the one covered by the signal's own
            // release-decrement drains another acquire contribution.
            s.counters.decrement(m.addr);
            if (v.outstanding > 0)
                --v.outstanding;
        }
        first = false;
        if (!broadcast)
            break;
    }
    memMaybeCleanup(s, m.addr, v, done2);
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
        if (j == s.unit)
            continue;
        SyncMessage dec;
        dec.addr = var;
        dec.opcode = Op::DecreaseIndexingCounter;
        dec.coreId = s.unit;
        sendToStation(s.unit, j, dec, done);
    }
    while (v.outstanding > 0) {
        s.counters.decrement(var);
        --v.outstanding;
    }
    s.memVars.erase(var);
}

void
SynCronBackend::onDecreaseIndexingCounter(Station &s, const SyncMessage &m)
{
    s.counters.decrement(m.addr);
}

void
SynCronBackend::onOverflowGrant(Station &s, const SyncMessage &m,
                                Tick done)
{
    const unsigned core = m.coreId % 256;
    SYNCRON_ASSERT(m.coreId / 256 == s.unit,
                   "overflow grant delivered to wrong SE");
    switch (m.opcode) {
      case Op::LockGrantOverflow:
        // The lock's release will decrement the counter; grants do not.
        grantCore(s.unit, globalCoreId(s.unit, core), m.addr, done);
        break;
      case Op::SemGrantOverflow:
        s.counters.decrement(m.addr);
        s.redirectedDec(m.addr);
        grantCore(s.unit, globalCoreId(s.unit, core), m.addr, done);
        break;
      case Op::BarrierDepartureOverflow:
        s.counters.decrement(m.addr);
        s.redirectedDec(m.addr);
        grantCore(s.unit, globalCoreId(s.unit, core), m.addr, done);
        break;
      case Op::CondGrantOverflow:
        s.counters.decrement(m.addr);
        s.redirectedDec(m.addr);
        // Re-acquire the associated lock before cond_wait returns.
        internalLockAcquire(s, core, m.condLockAddr(), done);
        break;
      default:
        SYNCRON_PANIC("unexpected grant opcode " << opName(m.opcode));
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
    // server on shard 0's queue (eq()) with synchronous routeMessage
    // hops — a single-queue path. Under sharding that would be a
    // cross-shard schedule from a foreign worker thread, so fail loudly
    // instead of racing. (Both divert entry points come through here.)
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
        machine_.eq().now(), core.unit(), server.unit, sync::kSyncReqBits);
    ++machine_.stats().syncOverflowMsgs;
    ++misarPending_[req.var()];
    const CoreId coreId = core.id();
    machine_.eq().schedule(arrival, [this, &server, req, coreId,
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
    const Tick now = machine_.eq().now();
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

    machine_.eq().schedule(done, [this, &server, req, core, gate] {
        const Addr var = req.var();
        const Tick when = machine_.eq().now();
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
