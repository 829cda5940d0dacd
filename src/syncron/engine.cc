#include "syncron/engine.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/log.hh"
#include "common/units.hh"
#include "durability/pm_model.hh"
#include "sync/registry.hh"

namespace syncron::engine {

using sync::Op;
using sync::OpKind;
using sync::SyncMessage;
using sync::SyncRequest;

namespace {

/** Maps an API operation to its local-message opcode (Table 3). */
Op
localOpcodeFor(OpKind kind)
{
    switch (kind) {
      case OpKind::LockAcquire: return Op::LockAcquireLocal;
      case OpKind::LockRelease: return Op::LockReleaseLocal;
      case OpKind::BarrierWaitWithinUnit:
        return Op::BarrierWaitLocalWithinUnit;
      case OpKind::BarrierWaitAcrossUnits:
        return Op::BarrierWaitLocalAcrossUnits;
      case OpKind::SemWait: return Op::SemWaitLocal;
      case OpKind::SemPost: return Op::SemPostLocal;
      case OpKind::CondWait: return Op::CondWaitLocal;
      case OpKind::CondSignal: return Op::CondSignalLocal;
      case OpKind::CondBroadcast: return Op::CondBroadLocal;
    }
    SYNCRON_PANIC("unknown OpKind");
}

} // namespace

SynCronBackend::Station::Station(UnitId u, std::uint32_t entries,
                                 std::uint32_t counterCount,
                                 SystemStats &stats, bool persistEager)
    : unit(u), table(entries, stats, persistEager),
      counters(counterCount, stats, persistEager)
{}

SynCronBackend::SynCronBackend(Machine &machine, EngineOptions opts)
    : machine_(machine), opts_(opts),
      persistEager_(machine.config().persistMode
                    == durability::PersistMode::Eager)
{
    const SystemConfig &cfg = machine.config();
    const std::uint32_t entries =
        opts_.station == StationKind::ServerCore
            ? (1u << 20) // Hier: state lives in memory, no ST limit
            : cfg.stEntries;

    for (unsigned u = 0; u < cfg.numUnits; ++u) {
        stations_.push_back(std::make_unique<Station>(
            u, entries, cfg.indexingCounters, machine.stats(),
            persistEager_));
        if (opts_.station == StationKind::ServerCore) {
            Station &s = *stations_.back();
            s.l1 = std::make_unique<cache::Cache>(cfg.l1,
                                                  machine.stats());
            // Shadow tracking records come from a per-station region
            // reserved here (host side, deterministic order) rather than
            // the shared allocator, whose state would otherwise depend
            // on cross-shard allocation order.
            constexpr Addr kShadowRegionBytes = 1u << 20;
            s.shadowNext = machine.addrSpace().allocIn(
                u, kShadowRegionBytes, kCacheLineBytes);
            s.shadowEnd = s.shadowNext + kShadowRegionBytes;
        }
    }
    gates_.resize(cfg.totalCores());

    if (misarActive()) {
        const unsigned servers =
            opts_.overflow == OverflowPolicy::MisarCentral ? 1
                                                           : cfg.numUnits;
        for (unsigned u = 0; u < servers; ++u) {
            SoftServer server;
            server.unit = u;
            server.l1 =
                std::make_unique<cache::Cache>(cfg.l1, machine.stats());
            softServers_.push_back(std::move(server));
        }
    }
}

SynCronBackend::~SynCronBackend() = default;

const char *
SynCronBackend::name() const
{
    if (opts_.station == StationKind::ServerCore)
        return "Hier";
    switch (opts_.overflow) {
      case OverflowPolicy::Integrated: return "SynCron";
      case OverflowPolicy::MisarCentral: return "SynCron_CentralOvrfl";
      case OverflowPolicy::MisarDistrib: return "SynCron_DistribOvrfl";
    }
    SYNCRON_PANIC("unknown OverflowPolicy");
}

bool
SynCronBackend::isMaster(const Station &s, Addr var) const
{
    return masterOf(var) == s.unit;
}

CoreId
SynCronBackend::globalCoreId(UnitId unit, unsigned local) const
{
    return unit * machine_.config().coresPerUnit + local;
}

void
SynCronBackend::finalizeStats()
{
    // maxNow() is the tick of the run's last event — identical whether
    // the run was sharded or not, keeping the occupancy integrals in the
    // bit-identity contract.
    const Tick now = machine_.maxNow();
    for (auto &s : stations_)
        s->table.finalize(now);
}

std::uint64_t
SynCronBackend::overflowedRequests() const
{
    std::uint64_t n = 0;
    for (const auto &s : stations_)
        n += s->overflowedReqs;
    return n;
}

std::uint64_t
SynCronBackend::totalRequests() const
{
    std::uint64_t n = 0;
    for (const auto &s : stations_)
        n += s->totalReqs;
    return n;
}

std::uint32_t
SynCronBackend::stOccupied(UnitId unit) const
{
    return stations_.at(unit)->table.occupied();
}

std::uint32_t
SynCronBackend::counterValue(UnitId unit, Addr var) const
{
    return stations_.at(unit)->counters.value(var);
}

bool
SynCronBackend::idleVar(Addr var) const
{
    if (misarVars_.count(var) != 0 || misarPending_.count(var) != 0
        || !misarState_.idle(var)) {
        return false;
    }
    for (const auto &s : stations_) {
        if (s->table.contains(var) || s->hasRedirected(var)
            || s->inFlightLocal.contains(var)
            || s->memVars.count(var) != 0) {
            return false;
        }
    }
    return true;
}

void
SynCronBackend::releaseVar(Addr var)
{
    // Hardware state frees itself when a variable goes idle (ST entries
    // are released, in-memory records cleaned up); nothing to drop, but
    // a destroy of a still-tracked variable is a program error.
    SYNCRON_ASSERT(idleVar(var), "releaseVar @" << var
                                     << " with live engine state");
}

// --------------------------------------------------------------------
// Request issue and transport
// --------------------------------------------------------------------

Addr
SynCronBackend::gateKeyFor(const SyncRequest &req)
{
    return req.kind() == OpKind::CondWait ? req.condLock() : req.var();
}

void
SynCronBackend::addPendingGate(CoreId core, Addr key, sim::Gate *gate)
{
    gates_[core].push_back(PendingGate{key, gate});
}

sim::Gate *
SynCronBackend::takePendingGate(CoreId core, Addr key)
{
    auto &pending = gates_[core];
    for (auto it = pending.begin(); it != pending.end(); ++it) {
        if (it->key == key) {
            sim::Gate *gate = it->gate;
            pending.erase(it);
            return gate;
        }
    }
    SYNCRON_PANIC("core " << core << " has no pending sync op on @"
                          << key);
}

SyncMessage
SynCronBackend::admit(core::Core &requester, const SyncRequest &req,
                      sim::Gate *gate)
{
    ++stations_[requester.unit()]->totalReqs;
    if (req.acquireType()) {
        addPendingGate(requester.id(), gateKeyFor(req), gate);
    } else {
        // req_async: commits once the message is issued to the network.
        gate->open(0, requester.cyclePeriod());
    }
    // The sole spot where a typed request becomes a Fig. 5 hardware
    // message; MessageInfo is the request payload's wire encoding.
    SyncMessage msg;
    msg.addr = req.var();
    msg.opcode = localOpcodeFor(req.kind());
    msg.coreId = requester.localId();
    msg.info = req.messageInfo();
    return msg;
}

void
SynCronBackend::request(core::Core &requester, const SyncRequest &req,
                        sim::Gate *gate)
{
    const SyncMessage msg = admit(requester, req, gate);

    // MiSAR ablation: variables in software mode bypass the SEs.
    if (misarActive() && misarVars_.count(req.var()) != 0) {
        misarRequest(requester, req, gate);
        return;
    }

    const UnitId unit = requester.unit();
    const Tick arrival = machine_.routeMessage(
        machine_.eq(unit).now(), unit, unit, sync::kSyncReqBits);
    ++machine_.stats().syncLocalMsgs;
    ++stations_[unit]->inFlightLocal[req.var()];
    machine_.eq(unit).schedule(arrival,
                               [this, unit, msg] { receive(unit, msg); });
}

void
SynCronBackend::requestBatch(core::Core &requester,
                             std::span<const SyncRequest> reqs,
                             std::span<sim::Gate *const> gates)
{
    SYNCRON_ASSERT(reqs.size() == gates.size(),
                   "batch of " << reqs.size() << " requests with "
                               << gates.size() << " gates");
    // Coalescing eligibility: at least two operations, and never under
    // the MiSAR ablation — software-mode variables bypass the SEs with
    // per-op abort bookkeeping that a shared message cannot carry.
    if (reqs.size() < 2 || misarActive()) {
        for (std::size_t i = 0; i < reqs.size(); ++i)
            request(requester, reqs[i], gates[i]);
        return;
    }

    // Every member's first hop is the requesting core's local SE, so
    // the whole batch coalesces into a single core -> SE message with
    // one shared header and per-op records (the SPU still services each
    // record — and the protocol still forwards/grants each operation —
    // individually, in batch order).
    const UnitId unit = requester.unit();
    Station &local = *stations_[unit];
    std::vector<SyncMessage> msgs;
    msgs.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        msgs.push_back(admit(requester, reqs[i], gates[i]));
        ++local.inFlightLocal[reqs[i].var()];
    }

    const auto n = static_cast<std::uint32_t>(reqs.size());
    const Tick arrival = machine_.routeMessage(
        machine_.eq(unit).now(), unit, unit, sync::batchReqBits(reqs));
    SystemStats &st = machine_.stats();
    ++st.syncLocalMsgs;
    st.batchedOps += n;
    st.messagesSaved += n - 1;
    machine_.eq(unit).schedule(arrival, [this, unit,
                                         msgs = std::move(msgs)] {
        for (const SyncMessage &m : msgs)
            receive(unit, m);
    });
}

void
SynCronBackend::sendToStation(UnitId from, UnitId to, SyncMessage msg,
                              Tick depart)
{
    SYNCRON_ASSERT(from != to, "station self-send of " << opName(msg.opcode));
    if (sync::isOverflowOp(msg.opcode)
        || msg.opcode == Op::DecreaseIndexingCounter) {
        ++machine_.stats().syncOverflowMsgs;
    } else {
        ++machine_.stats().syncGlobalMsgs;
    }
    // The engine's only cross-unit transport: a keyed delivery filed
    // into @p to 's shard queue.
    machine_.postMessage(depart, from, to, sync::kSyncReqBits,
                         [this, to, msg] { receive(to, msg); });
}

void
SynCronBackend::sendGlobal(Station &s, UnitId to, Op op, Addr var,
                           Tick depart, std::uint64_t info)
{
    SyncMessage msg;
    msg.addr = var;
    msg.opcode = op;
    msg.coreId = s.unit;
    msg.info = info;
    sendToStation(s.unit, to, msg, depart);
}

void
SynCronBackend::grantCore(UnitId seUnit, CoreId core, Addr var,
                          Tick depart)
{
    SYNCRON_ASSERT(core / machine_.config().coresPerUnit == seUnit,
                   "grant must come from the core's own unit");
    const Tick arrival = machine_.routeMessage(depart, seUnit, seUnit,
                                               sync::kSyncRespBits);
    ++machine_.stats().syncLocalMsgs;
    sim::Gate *gate = takePendingGate(core, var);
    gate->open(0, arrival - machine_.eq(seUnit).now());
}

// --------------------------------------------------------------------
// SPU scheduling
// --------------------------------------------------------------------

Tick
SynCronBackend::baseServiceTicks(Station &, Addr)
{
    const SystemConfig &cfg = machine_.config();
    if (opts_.station == StationKind::SyncronSe) {
        // Table 5: every message is served in 12 SPU cycles @1 GHz
        // (the time of the slowest message, barrier_depart_global).
        return static_cast<Tick>(cfg.seServiceCycles) * cfg.seCyclePeriod;
    }
    // Software server: decode/dispatch/bookkeeping instructions on an
    // in-order core; the state access is added separately (it can miss).
    return static_cast<Tick>(cfg.serverSwOverheadCycles)
           * kCoreClock.period();
}

Tick
SynCronBackend::serverStateAccess(Station &s, Addr var, Tick start)
{
    // The server keeps tracking state for the variable in its own unit's
    // memory and accesses it through its L1 (read-modify-write). The
    // Master-unit server uses the variable's own address; other units use
    // a local shadow record.
    Addr track = var;
    if (!isMaster(s, var)) {
        auto it = s.shadow.find(var);
        if (it == s.shadow.end()) {
            // Carve from the station's private region (deterministic and
            // shard-local; see the reservation in the constructor).
            SYNCRON_ASSERT(s.shadowNext < s.shadowEnd,
                           "server shadow region exhausted at unit "
                               << s.unit);
            track = s.shadowNext;
            s.shadowNext += kCacheLineBytes;
            s.shadow.emplace(var, track);
        } else {
            track = it->second;
        }
    }

    const Tick hit = static_cast<Tick>(s.l1->params().hitCycles)
                     * kCoreClock.period();
    cache::CacheAccessResult res = s.l1->access(track, false);
    Tick t = start + hit;
    if (!res.hit) {
        t = machine_.memoryAccess(t, s.unit, lineAlign(track), false,
                                  kCacheLineBytes);
        if (res.writeback) {
            machine_.memoryAccess(start + hit, s.unit, res.victimAddr,
                                  true, kCacheLineBytes);
        }
    }
    // The modifying write hits the just-filled line.
    s.l1->access(track, true);
    return t + hit;
}

void
SynCronBackend::receive(UnitId unit, SyncMessage msg)
{
    Station &s = *stations_[unit];
    const Tick now = machine_.eq(unit).now();
    const Tick start = std::max(now, s.busyUntil);
    // Reserve the SPU; handle() extends the reservation if the message
    // needs memory accesses (overflow path / server state access).
    s.busyUntil = start + baseServiceTicks(s, msg.addr);
    machine_.eq(unit).schedule(start, [this, unit, msg] {
        handle(*stations_[unit], msg);
    });
}

void
SynCronBackend::handle(Station &s, SyncMessage msg)
{
    const Tick now = machine_.eq(s.unit).now();
    Tick done = now + baseServiceTicks(s, msg.addr);

    // Local-opcode messages come only from cores via request(); once the
    // station consumes one, the variable's state is resident somewhere
    // (ST entry, in-memory record, or the misar pending counter).
    if (!sync::isGlobalOp(msg.opcode)) {
        std::uint32_t *inFlight = s.inFlightLocal.find(msg.addr);
        SYNCRON_ASSERT(inFlight != nullptr && *inFlight > 0,
                       "local message with no in-flight accounting");
        if (--*inFlight == 0)
            s.inFlightLocal.erase(msg.addr);
    }

    // MiSAR ablation: local operations on a variable in software mode
    // divert before touching any hardware state (condition variables
    // are pinned to the integrated path; see redirectOverflow).
    if (misarActive() && misarVars_.count(msg.addr) != 0) {
        switch (msg.opcode) {
          case Op::LockAcquireLocal:
          case Op::LockReleaseLocal:
          case Op::BarrierWaitLocalWithinUnit:
          case Op::BarrierWaitLocalAcrossUnits:
          case Op::SemWaitLocal:
          case Op::SemPostLocal:
            s.busyUntil = std::max(s.busyUntil, done);
            misarDivertLocal(s, msg, done);
            return;
          default:
            break;
        }
    }
    if (opts_.station == StationKind::ServerCore)
        done = serverStateAccess(s, msg.addr, done);
    s.busyUntil = std::max(s.busyUntil, done);
    dispatch(s, msg, done);
}

// --------------------------------------------------------------------
// Fig. 8 control flow
// --------------------------------------------------------------------

void
SynCronBackend::dispatch(Station &s, const SyncMessage &m, Tick done)
{
    switch (m.opcode) {
      // Replies to this SE's own requests, and the Master SE's counter
      // release: their state is already here, nothing to route.
      case Op::LockGrantGlobal: onLockGrantGlobal(s, m, done); return;
      case Op::BarrierDepartGlobal: onBarrierDepartGlobal(s, m, done); return;
      case Op::SemGrantGlobal: onSemGrantGlobal(s, m, done); return;
      case Op::CondGrantGlobal: onCondGrantGlobal(s, m, done); return;
      case Op::LockGrantOverflow:
      case Op::SemGrantOverflow:
      case Op::CondGrantOverflow:
      case Op::BarrierDepartureOverflow: onOverflowGrant(s, m, done); return;
      case Op::DecreaseIndexingCounter: s.counters.decrement(m.addr); return;
      case Op::CondBroadGlobal:
        // Used in both directions: SE -> Master (forwarded broadcast)
        // and Master -> SE (wake-all grant).
        if (!isMaster(s, m.addr)) {
            onCondGrantGlobal(s, m, done);
            return;
        }
        break;
      case Op::SemPostLocal:
      case Op::CondSignalLocal:
      case Op::CondBroadLocal:
        if (!isMaster(s, m.addr)) {
            combineLocally(s, m, done);
            return;
        }
        break;
      default:
        break;
    }

    // A redirected request is always serviced in the syncronVar record.
    if (sync::isOverflowOp(m.opcode)) {
        memOp(s, m, done);
        return;
    }
    const Route route = routeFor(s, m.addr, sync::isAcquireOp(m.opcode),
                                 sync::isGlobalOp(m.opcode));
    if (route != Route::Table) {
        if (route == Route::Redirect)
            redirectOverflow(s, m, done);
        else
            memOp(s, m, done);
        // Either way the core's cond_wait releases its lock here.
        if (m.opcode == Op::CondWaitLocal) {
            internalLockOp(s, Op::LockReleaseLocal, m.coreId,
                           m.condLockAddr(), done);
        }
        return;
    }

    StEntry &e = *entryOf(s, m.addr);
    switch (m.opcode) {
      case Op::LockAcquireLocal: onLockAcquireLocal(s, e, m, done); break;
      case Op::LockReleaseLocal: onLockReleaseLocal(s, e, m, done); break;
      case Op::LockAcquireGlobal: onLockAcquireGlobal(s, e, m, done); break;
      case Op::LockReleaseGlobal:
        SYNCRON_ASSERT(e.ownerKind == LockOwner::Unit
                           && e.ownerId == m.coreId,
                       "global release by non-owner unit " << m.coreId);
        e.ownerKind = LockOwner::None;
        masterNextGrant(s, e, done);
        break;
      case Op::BarrierWaitLocalWithinUnit:
      case Op::BarrierWaitLocalAcrossUnits:
        onBarrierWaitLocal(s, e, m, done);
        break;
      case Op::BarrierWaitGlobal: onBarrierWaitGlobal(s, e, m, done); break;
      case Op::SemWaitLocal: onSemWaitLocal(s, e, m, done); break;
      case Op::SemWaitGlobal: onSemWaitGlobal(s, e, m, done); break;
      case Op::SemPostLocal:
      case Op::SemPostGlobal:
        // Master only. Global posts may carry a batch count (returned
        // grant excess).
        for (std::uint64_t n = m.info > 0 ? m.info : 1; n > 0; --n)
            masterSemPost(s, e, done);
        maybeFree(s, e, machine_.eq(s.unit).now());
        break;
      case Op::CondWaitLocal: onCondWaitLocal(s, e, m, done); break;
      case Op::CondWaitGlobal: onCondWaitGlobal(s, e, m, done); break;
      case Op::CondSignalLocal:
      case Op::CondSignalGlobal: masterCondSignal(s, e, false, done); break;
      case Op::CondBroadLocal:
      case Op::CondBroadGlobal: masterCondSignal(s, e, true, done); break;
      default:
        SYNCRON_PANIC("unhandled opcode " << opName(m.opcode));
    }
}

SynCronBackend::Route
SynCronBackend::routeFor(Station &s, Addr var, bool acquireType,
                         bool global)
{
    ++machine_.stats().stRequests;
    if (s.table.find(var) != nullptr)
        return Route::Table;

    if (isMaster(s, var)) {
        // A live in-memory record forces the memory path even when the
        // indexing counter aliases away (split-brain protection).
        if (s.memVars.count(var) != 0
            || s.counters.servicedViaMemory(var) || s.table.full()) {
            ++s.overflowedReqs;
            ++machine_.stats().stOverflowEvents;
            return Route::Memory;
        }
    } else if (s.counters.servicedViaMemory(var) || s.table.full()
               || s.hasRedirected(var)) {
        ++s.overflowedReqs;
        ++machine_.stats().stOverflowEvents;
        SYNCRON_ASSERT(!global, "global message routed to non-master");
        // Non-master overflowed SE: redirect to the Master SE and track
        // the variable as serviced-via-memory (Section 4.3.2). Under the
        // MiSAR ablation the counters are managed by the abort/notify
        // protocol instead.
        if (!misarActive()) {
            if (acquireType)
                s.counters.increment(var);
            else
                s.counters.decrement(var);
        }
        return Route::Redirect;
    }

    StEntry *e = s.table.alloc(var, machine_.eq(s.unit).now());
    SYNCRON_ASSERT(e != nullptr, "alloc failed with non-full table");
    return Route::Table;
}

void
SynCronBackend::internalLockOp(Station &s, Op op, unsigned localCore,
                               Addr lock, Tick done)
{
    SyncMessage m;
    m.addr = lock;
    m.opcode = op;
    m.coreId = localCore;
    if (misarActive() && misarVars_.count(lock) != 0)
        misarDivertLocal(s, m, done);
    else
        dispatch(s, m, done);
}

void
SynCronBackend::combineLocally(Station &s, const SyncMessage &m, Tick done)
{
    // Hierarchical combining: a post or a signal that finds a local
    // waiter serves it without a round trip to the Master SE (a
    // broadcast must reach every waiter, so it always goes on).
    StEntry *e = s.table.find(m.addr);
    if (m.opcode != Op::CondBroadLocal && e != nullptr
        && e->localWaitBits != 0) {
        const unsigned c = lowestSetBit(e->localWaitBits);
        e->localWaitBits = withoutBit(e->localWaitBits, c);
        if (m.opcode == Op::SemPostLocal) {
            grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done);
        } else {
            // The woken core re-acquires the associated lock first.
            internalLockOp(s, Op::LockAcquireLocal, c,
                           static_cast<Addr>(e->tableInfo), done);
        }
        return;
    }
    // Otherwise forward (or redirect) to the master without reserving
    // an ST entry.
    if (s.counters.servicedViaMemory(m.addr) || s.hasRedirected(m.addr)) {
        redirectOverflow(s, m, done);
        return;
    }
    const Op fwd = m.opcode == Op::SemPostLocal     ? Op::SemPostGlobal
                   : m.opcode == Op::CondSignalLocal ? Op::CondSignalGlobal
                                                     : Op::CondBroadGlobal;
    sendGlobal(s, masterOf(m.addr), fwd, m.addr, done);
}

StEntry *
SynCronBackend::entryOf(Station &s, Addr var)
{
    StEntry *e = s.table.find(var);
    SYNCRON_ASSERT(e != nullptr, "missing ST entry for @" << var);
    return e;
}

void
SynCronBackend::maybeFree(Station &s, StEntry &e, Tick now)
{
    if (e.idle())
        s.table.release(e.addr, now);
}

// --------------------------------------------------------------------
// Lock protocol (Section 3.2)
// --------------------------------------------------------------------

void
SynCronBackend::localGrantNext(Station &s, StEntry &e, Tick done)
{
    SYNCRON_ASSERT(e.localWaitBits != 0, "grant with no local waiters");
    const unsigned c = lowestSetBit(e.localWaitBits);
    e.localWaitBits = withoutBit(e.localWaitBits, c);
    e.ownerKind = LockOwner::LocalCore;
    e.ownerId = c;
    grantCore(s.unit, globalCoreId(s.unit, c), e.addr, done);
}

void
SynCronBackend::masterNextGrant(Station &s, StEntry &e, Tick done)
{
    if (e.localWaitBits != 0) {
        // The Master SE prioritizes its local waiting list (Section 3.2).
        localGrantNext(s, e, done);
    } else if (e.globalWaitBits != 0) {
        const unsigned j = lowestSetBit(e.globalWaitBits);
        e.globalWaitBits = withoutBit(e.globalWaitBits, j);
        e.ownerKind = LockOwner::Unit;
        e.ownerId = j;
        sendGlobal(s, j, Op::LockGrantGlobal, e.addr, done);
    } else {
        e.ownerKind = LockOwner::None;
        maybeFree(s, e, machine_.eq(s.unit).now());
    }
}

void
SynCronBackend::onLockAcquireLocal(Station &s, StEntry &e,
                                   const SyncMessage &m, Tick done)
{
    const unsigned c = m.coreId;

    if (isMaster(s, m.addr)) {
        if (e.ownerKind == LockOwner::None) {
            e.ownerKind = LockOwner::LocalCore;
            e.ownerId = c;
            grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done);
        } else {
            e.localWaitBits = withBit(e.localWaitBits, c);
        }
        return;
    }

    // Non-master local SE.
    if (e.holdsGrant && e.ownerKind == LockOwner::None) {
        e.ownerKind = LockOwner::LocalCore;
        e.ownerId = c;
        grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done);
        return;
    }
    e.localWaitBits = withBit(e.localWaitBits, c);
    if (!e.holdsGrant && !e.requestedGlobal) {
        e.requestedGlobal = true;
        sendGlobal(s, masterOf(m.addr), Op::LockAcquireGlobal, m.addr, done);
    }
}

void
SynCronBackend::onLockReleaseLocal(Station &s, StEntry &e,
                                   const SyncMessage &m, Tick done)
{
    SYNCRON_ASSERT(e.ownerKind == LockOwner::LocalCore
                       && e.ownerId == m.coreId,
                   "lock release by non-owner core "
                       << m.coreId << " @" << m.addr << " unit=" << s.unit
                       << " master=" << isMaster(s, m.addr)
                       << " ownerKind=" << static_cast<int>(e.ownerKind)
                       << " ownerId=" << e.ownerId
                       << " holds=" << e.holdsGrant
                       << " reqGlobal=" << e.requestedGlobal
                       << " waitBits=" << e.localWaitBits
                       << " counter=" << s.counters.value(m.addr)
                       << " redirected=" << s.hasRedirected(m.addr));
    e.ownerKind = LockOwner::None;

    if (isMaster(s, m.addr)) {
        masterNextGrant(s, e, done);
        return;
    }

    // Non-master local SE: serve successive local requests while any
    // exist (Section 3.2).
    if (e.localWaitBits != 0) {
        localGrantNext(s, e, done);
        return;
    }

    // Release the unit's hold with one aggregated global message.
    e.holdsGrant = false;
    sendGlobal(s, masterOf(m.addr), Op::LockReleaseGlobal, m.addr, done);
    maybeFree(s, e, machine_.eq(s.unit).now());
}

void
SynCronBackend::onLockAcquireGlobal(Station &s, StEntry &e,
                                    const SyncMessage &m, Tick done)
{
    const unsigned j = m.coreId;
    if (e.ownerKind == LockOwner::None) {
        e.ownerKind = LockOwner::Unit;
        e.ownerId = j;
        sendGlobal(s, j, Op::LockGrantGlobal, m.addr, done);
    } else {
        e.globalWaitBits = withBit(e.globalWaitBits, j);
    }
}

void
SynCronBackend::onLockGrantGlobal(Station &s, const SyncMessage &m,
                                  Tick done)
{
    StEntry *e = s.table.find(m.addr);
    SYNCRON_ASSERT(e != nullptr,
                   "lock grant for @" << m.addr << " with no ST entry");
    e->holdsGrant = true;
    e->requestedGlobal = false;
    if (e->localWaitBits != 0) {
        localGrantNext(s, *e, done);
    } else {
        // All local waiters vanished (possible only through exotic
        // interleavings); return the lock immediately.
        e->holdsGrant = false;
        sendGlobal(s, masterOf(m.addr), Op::LockReleaseGlobal, m.addr,
                   done);
        maybeFree(s, *e, machine_.eq(s.unit).now());
    }
}

// --------------------------------------------------------------------
// Barrier protocol (Section 4.1)
// --------------------------------------------------------------------

bool
SynCronBackend::hierBarrier(std::uint64_t total) const
{
    const SystemConfig &cfg = machine_.config();
    return total == cfg.totalClientCores() && cfg.numUnits > 1;
}

void
SynCronBackend::departLocalWaiters(Station &s, StEntry &e, Tick done)
{
    std::uint64_t bits = e.localWaitBits;
    e.localWaitBits = 0;
    while (bits != 0) {
        const unsigned c = lowestSetBit(bits);
        bits = withoutBit(bits, c);
        grantCore(s.unit, globalCoreId(s.unit, c), e.addr, done);
    }
}

void
SynCronBackend::masterBarrierCheck(Station &s, StEntry &e,
                                   std::uint64_t total, Tick done)
{
    const SystemConfig &cfg = machine_.config();
    const bool complete =
        hierBarrier(total)
            ? e.barrierArrived == cfg.clientCoresPerUnit
                  && e.barrierUnitsArrived == cfg.numUnits - 1
            : e.barrierArrived == total;
    if (!complete)
        return;

    std::uint64_t units = e.globalWaitBits;
    e.globalWaitBits = 0;
    e.barrierArrived = 0;
    e.barrierUnitsArrived = 0;
    while (units != 0) {
        const unsigned j = lowestSetBit(units);
        units = withoutBit(units, j);
        sendGlobal(s, j, Op::BarrierDepartGlobal, e.addr, done);
    }
    departLocalWaiters(s, e, done);
    maybeFree(s, e, machine_.eq(s.unit).now());
}

void
SynCronBackend::onBarrierWaitLocal(Station &s, StEntry &e,
                                   const SyncMessage &m, Tick done)
{
    e.localWaitBits = withBit(e.localWaitBits, m.coreId);
    ++e.barrierArrived;

    if (m.opcode == Op::BarrierWaitLocalWithinUnit) {
        // Coordinated entirely by the local SE.
        if (e.barrierArrived == m.barrierTotal()) {
            e.barrierArrived = 0;
            departLocalWaiters(s, e, done);
            maybeFree(s, e, machine_.eq(s.unit).now());
        }
        return;
    }

    if (isMaster(s, m.addr)) {
        masterBarrierCheck(s, e, m.barrierTotal(), done);
        return;
    }

    if (hierBarrier(m.barrierTotal())) {
        // Two-level: one aggregated message once every local core of
        // this unit has arrived (Section 3.2).
        if (e.barrierArrived != machine_.config().clientCoresPerUnit
            || e.barrierGlobalSent) {
            return;
        }
        e.barrierGlobalSent = true;
    }
    // Otherwise partial participation: one-level communication —
    // re-direct every local arrival to the Master SE (Section 4.1).
    sendGlobal(s, masterOf(m.addr), Op::BarrierWaitGlobal, m.addr, done,
               m.info);
}

void
SynCronBackend::onBarrierWaitGlobal(Station &s, StEntry &e,
                                    const SyncMessage &m, Tick done)
{
    e.globalWaitBits = withBit(e.globalWaitBits, m.coreId);
    if (hierBarrier(m.barrierTotal()))
        ++e.barrierUnitsArrived;
    else
        ++e.barrierArrived;
    masterBarrierCheck(s, e, m.barrierTotal(), done);
}

void
SynCronBackend::onBarrierDepartGlobal(Station &s, const SyncMessage &m,
                                      Tick done)
{
    StEntry *e = s.table.find(m.addr);
    SYNCRON_ASSERT(e != nullptr, "barrier departure with no ST entry");
    e->barrierArrived = 0;
    e->barrierGlobalSent = false;
    departLocalWaiters(s, *e, done);
    maybeFree(s, *e, machine_.eq(s.unit).now());
}

// --------------------------------------------------------------------
// Semaphore protocol
// --------------------------------------------------------------------

void
SynCronBackend::masterSemPost(Station &s, StEntry &e, Tick done)
{
    if (e.localWaitBits != 0) {
        const unsigned c = lowestSetBit(e.localWaitBits);
        e.localWaitBits = withoutBit(e.localWaitBits, c);
        grantCore(s.unit, globalCoreId(s.unit, c), e.addr, done);
    } else if (e.globalWaitBits != 0) {
        const unsigned j = lowestSetBit(e.globalWaitBits);
        e.globalWaitBits = withoutBit(e.globalWaitBits, j);
        sendGlobal(s, j, Op::SemGrantGlobal, e.addr, done);
    } else {
        ++e.semDelta;
    }
}

void
SynCronBackend::onSemWaitLocal(Station &s, StEntry &e, const SyncMessage &m,
                               Tick done)
{
    if (isMaster(s, m.addr)) {
        if (e.semAvail(m.semResources()) > 0) {
            --e.semDelta;
            grantCore(s.unit, globalCoreId(s.unit, m.coreId), m.addr,
                      done);
            maybeFree(s, e, machine_.eq(s.unit).now());
        } else {
            e.localWaitBits = withBit(e.localWaitBits, m.coreId);
        }
        return;
    }

    // Re-arms after a partial grant carry the initial resources too.
    e.tableInfo = m.semResources();
    e.localWaitBits = withBit(e.localWaitBits, m.coreId);
    if (!e.semArmed) {
        e.semArmed = true;
        sendGlobal(s, masterOf(m.addr), Op::SemWaitGlobal, m.addr, done,
                   m.info);
    }
}

void
SynCronBackend::onSemWaitGlobal(Station &s, StEntry &e, const SyncMessage &m,
                                Tick done)
{
    const std::int64_t avail = e.semAvail(m.semResources());
    if (avail > 0) {
        // Batched grant: hand the requesting SE up to a unit's worth of
        // resources in one message (MessageInfo carries the count); the
        // SE returns any excess. This amortizes the serial SE<->master
        // round trips of the bit-queue.
        const std::int64_t batch = std::min<std::int64_t>(
            avail, machine_.config().clientCoresPerUnit);
        e.semDelta -= batch;
        sendGlobal(s, m.coreId, Op::SemGrantGlobal, m.addr, done,
                   static_cast<std::uint64_t>(batch));
        maybeFree(s, e, machine_.eq(s.unit).now());
    } else {
        e.globalWaitBits = withBit(e.globalWaitBits, m.coreId);
    }
}

void
SynCronBackend::onSemGrantGlobal(Station &s, const SyncMessage &m,
                                 Tick done)
{
    StEntry *e = s.table.find(m.addr);
    SYNCRON_ASSERT(e != nullptr, "sem grant with no ST entry");
    std::uint64_t granted = m.info > 0 ? m.info : 1;

    // Wake as many local waiters as the batch allows.
    while (granted > 0 && e->localWaitBits != 0) {
        const unsigned c = lowestSetBit(e->localWaitBits);
        e->localWaitBits = withoutBit(e->localWaitBits, c);
        grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done);
        --granted;
    }

    if (granted > 0) {
        // Excess resources (waiters were satisfied by locally-combined
        // posts, or the batch was generous): return them to the master.
        sendGlobal(s, masterOf(m.addr), Op::SemPostGlobal, m.addr, done,
                   granted);
    }
    if (e->localWaitBits != 0) {
        // Bit-queue semantics: re-arm the request for remaining waiters.
        sendGlobal(s, masterOf(m.addr), Op::SemWaitGlobal, m.addr, done,
                   e->tableInfo);
    } else {
        e->semArmed = false;
        maybeFree(s, *e, machine_.eq(s.unit).now());
    }
}

// --------------------------------------------------------------------
// Condition-variable protocol
// --------------------------------------------------------------------

void
SynCronBackend::masterCondSignal(Station &s, StEntry &e, bool broadcast,
                                 Tick done)
{
    const Addr lockAddr = static_cast<Addr>(e.tableInfo);
    do {
        if (e.localWaitBits != 0) {
            const unsigned c = lowestSetBit(e.localWaitBits);
            e.localWaitBits = withoutBit(e.localWaitBits, c);
            // The woken core re-acquires the associated lock before its
            // cond_wait returns; the SE issues the acquire on its behalf.
            internalLockOp(s, Op::LockAcquireLocal, c, lockAddr, done);
        } else if (e.globalWaitBits != 0) {
            const unsigned j = lowestSetBit(e.globalWaitBits);
            e.globalWaitBits = withoutBit(e.globalWaitBits, j);
            sendGlobal(s, j,
                       broadcast ? Op::CondBroadGlobal : Op::CondGrantGlobal,
                       e.addr, done, lockAddr);
        } else {
            // No waiter is recorded yet. A waiter may logically precede
            // this signal but its arming message may still be in flight;
            // remember the signal so the next wait consumes it (spurious
            // wakeup instead of lost wakeup).
            ++e.condPending;
            break;
        }
    } while (broadcast
             && (e.localWaitBits != 0 || e.globalWaitBits != 0));
    maybeFree(s, e, machine_.eq(s.unit).now());
}

void
SynCronBackend::onCondWaitLocal(Station &s, StEntry &e, const SyncMessage &m,
                                Tick done)
{
    SYNCRON_ASSERT(e.tableInfo == 0 || e.tableInfo == m.condLockAddr(),
                   "condition variable used with two different locks");
    e.tableInfo = m.info;
    e.localWaitBits = withBit(e.localWaitBits, m.coreId);

    if (!isMaster(s, m.addr) && !e.condArmed) {
        e.condArmed = true;
        sendGlobal(s, masterOf(m.addr), Op::CondWaitGlobal, m.addr, done,
                   m.info);
    }
    // Queue first, then release the associated lock — no missed wakeups.
    internalLockOp(s, Op::LockReleaseLocal, m.coreId, m.condLockAddr(),
                   done);

    // Consume a signal that raced ahead of this wait (master role only;
    // must happen after the lock release above so the woken core can
    // re-acquire it).
    if (isMaster(s, m.addr) && e.condPending > 0) {
        --e.condPending;
        masterCondSignal(s, e, false, done);
    }
}

void
SynCronBackend::onCondWaitGlobal(Station &s, StEntry &e, const SyncMessage &m,
                                 Tick done)
{
    e.tableInfo = m.info;
    e.globalWaitBits = withBit(e.globalWaitBits, m.coreId);
    if (e.condPending > 0) {
        --e.condPending;
        masterCondSignal(s, e, false, done);
    }
}

void
SynCronBackend::onCondGrantGlobal(Station &s, const SyncMessage &m,
                                  Tick done)
{
    StEntry *e = s.table.find(m.addr);
    SYNCRON_ASSERT(e != nullptr, "cond grant with no ST entry");
    const bool broadcast = m.opcode == Op::CondBroadGlobal;
    const Addr lockAddr = m.condLockAddr();

    if (e->localWaitBits == 0) {
        // All local waiters were woken by locally-combined signals in
        // the meantime. A single grant must not be lost — bounce it
        // back to the master; a broadcast wakes "everyone present",
        // which is now nobody.
        e->condArmed = false;
        if (!broadcast) {
            sendGlobal(s, masterOf(m.addr), Op::CondSignalGlobal, m.addr,
                       done);
        }
        maybeFree(s, *e, machine_.eq(s.unit).now());
        return;
    }
    do {
        const unsigned c = lowestSetBit(e->localWaitBits);
        e->localWaitBits = withoutBit(e->localWaitBits, c);
        internalLockOp(s, Op::LockAcquireLocal, c, lockAddr, done);
    } while (broadcast && e->localWaitBits != 0);

    if (e->localWaitBits != 0) {
        // Waiters remain after a single grant: re-arm at the master.
        sendGlobal(s, masterOf(m.addr), Op::CondWaitGlobal, m.addr, done,
                   lockAddr);
    } else {
        e->condArmed = false;
        maybeFree(s, *e, machine_.eq(s.unit).now());
    }
}

SYNCRON_REGISTER_BACKEND_SHARDABLE("SynCron", [](Machine &m) {
    return std::make_unique<SynCronBackend>(m);
});

// Hier (paper Section 5): the same hierarchy with a software server
// core as each unit's station.
SYNCRON_REGISTER_BACKEND_SHARDABLE("Hier", [](Machine &m) {
    return std::make_unique<SynCronBackend>(
        m, EngineOptions{StationKind::ServerCore,
                         OverflowPolicy::Integrated});
});

// The Fig. 23 MiSAR overflow ablations. Not shardable: the software
// fallback servers use synchronous single-queue hops.
SYNCRON_REGISTER_BACKEND("SynCron_CentralOvrfl", [](Machine &m) {
    return std::make_unique<SynCronBackend>(
        m, EngineOptions{StationKind::SyncronSe,
                         OverflowPolicy::MisarCentral});
});

SYNCRON_REGISTER_BACKEND("SynCron_DistribOvrfl", [](Machine &m) {
    return std::make_unique<SynCronBackend>(
        m, EngineOptions{StationKind::SyncronSe,
                         OverflowPolicy::MisarDistrib});
});

} // namespace syncron::engine
