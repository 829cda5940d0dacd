#include "sync/api.hh"

#include <algorithm>
#include <tuple>

#include "common/log.hh"

namespace syncron::sync {

// The stats layer sizes its per-OpKind latency table without seeing the
// enum (common/ cannot depend on sync/); keep the two in lockstep.
static_assert(kNumSyncOpKinds
                  == static_cast<unsigned>(OpKind::CondBroadcast) + 1,
              "kNumSyncOpKinds must match the sync::OpKind enumerators");

namespace detail {

void
recordCompletion(Machine &machine, SyncApi &api, CoreId core,
                 const SyncRequest &req, Tick issued, Tick completed)
{
    machine.stats().recordSyncLatency(
        static_cast<unsigned>(req.kind()), completed - issued);
    api.notifyOp(core, req, issued, completed);
}

void
recordIssue(SyncApi &api, CoreId core, const SyncRequest &req, Tick issued)
{
    api.notifyIssue(core, req, issued);
}

} // namespace detail

// --------------------------------------------------------------------
// SyncBatch
// --------------------------------------------------------------------

SyncBatch &
SyncBatch::add(const SyncPrimitive &prim, const SyncRequest &req)
{
    reqs_.push_back(req);
    prims_.push_back(prim);
    return *this;
}

SyncBatch &
SyncBatch::acquire(const Lock &lock)
{
    return add(lock, SyncRequest::lockAcquire(lock.addr));
}

SyncBatch &
SyncBatch::release(const Lock &lock)
{
    return add(lock, SyncRequest::lockRelease(lock.addr));
}

SyncBatch &
SyncBatch::wait(const Barrier &barrier)
{
    SYNCRON_ASSERT(barrier.valid(), "batched wait on invalid barrier");
    return add(barrier,
               SyncRequest::barrierWait(barrier.addr, barrier.scope,
                                        barrier.participants));
}

SyncBatch &
SyncBatch::wait(const Semaphore &sem)
{
    return add(sem, SyncRequest::semWait(sem.addr, sem.initialResources));
}

SyncBatch &
SyncBatch::post(const Semaphore &sem)
{
    return add(sem, SyncRequest::semPost(sem.addr));
}

SyncBatch &
SyncBatch::signal(const CondVar &cond)
{
    return add(cond, SyncRequest::condSignal(cond.addr));
}

SyncBatch &
SyncBatch::broadcast(const CondVar &cond)
{
    return add(cond, SyncRequest::condBroadcast(cond.addr));
}

std::vector<SyncFuture>
SyncBatch::submit()
{
    std::vector<SyncFuture> futures =
        api_->submitBatch(*core_, reqs_, prims_);
    reqs_.clear();
    prims_.clear();
    return futures;
}

// --------------------------------------------------------------------
// ScopedLock
// --------------------------------------------------------------------

void
ScopedLock::releaseDetached()
{
    if (!engaged_)
        return;
    engaged_ = false;
    api_->issueDetached(*core_, lock_,
                        SyncRequest::lockRelease(lock_.addr));
}

ScopedLock::~ScopedLock()
{
    releaseDetached();
}

ScopedLock &
ScopedLock::operator=(ScopedLock &&other) noexcept
{
    if (this != &other) {
        releaseDetached();
        api_ = other.api_;
        core_ = other.core_;
        lock_ = other.lock_;
        engaged_ = other.engaged_;
        other.engaged_ = false;
    }
    return *this;
}

SyncOp
ScopedLock::unlock()
{
    SYNCRON_ASSERT(engaged_, "unlock() on a guard that no longer owns "
                             "the lock");
    engaged_ = false;
    return api_->release(*core_, lock_);
}

// --------------------------------------------------------------------
// SyncApi
// --------------------------------------------------------------------

SyncApi::SyncApi(Machine &machine, SyncBackend &backend)
    : machine_(machine), backend_(backend),
      freeLists_(machine.config().numUnits)
{}

SyncApi::~SyncApi()
{
    if (!lanes_.empty())
        machine_.setWindowListener(nullptr);
}

void
SyncApi::addObserver(OpObserver *observer)
{
    SYNCRON_ASSERT(observer != nullptr, "null observer");
    observers_.push_back(observer);
    if (machine_.numShards() > 1 && lanes_.empty()) {
        lanes_.resize(machine_.numShards());
        machine_.setWindowListener(this);
    }
}

void
SyncApi::buffer(LaneEvent ev)
{
    const UnitId unit = ev.core / machine_.config().coresPerUnit;
    std::vector<LaneEvent> &lane = lanes_[machine_.shardOf(unit)].events;
    ev.fired = machine_.eq(unit).now();
    ev.seq = lane.size();
    lane.push_back(ev);
}

void
SyncApi::flushObservers()
{
    SYNCRON_ASSERT(!machine_.inShardedWindow(),
                   "observer flush inside a sharded window");
    for (Lane &lane : lanes_) {
        merged_.insert(merged_.end(), lane.events.begin(),
                       lane.events.end());
        lane.events.clear();
    }
    // Fire ticks of one window all precede the next window's, so a
    // per-window flush replays exactly the end-of-run merge order.
    std::sort(merged_.begin(), merged_.end(),
              [](const LaneEvent &a, const LaneEvent &b) {
                  return std::tie(a.fired, a.core, a.seq)
                         < std::tie(b.fired, b.core, b.seq);
              });
    for (const LaneEvent &ev : merged_) {
        for (OpObserver *o : observers_) {
            switch (ev.kind) {
              case LaneEvent::Issue:
                o->onIssue(ev.core, ev.req, ev.issued);
                break;
              case LaneEvent::Complete:
                o->onComplete(ev.core, ev.req, ev.issued, ev.completed);
                break;
              case LaneEvent::Access:
                o->onAccess(ev.core, ev.req.var(), ev.isWrite,
                            ev.completed);
                break;
            }
        }
    }
    merged_.clear();
}

SyncPrimitive
SyncApi::allocVar(UnitId unit)
{
    SYNCRON_ASSERT(unit < freeLists_.size(),
                   "primitive creation in unknown unit " << unit);
    SYNCRON_ASSERT(!machine_.inShardedWindow(),
                   "primitive creation while a sharded window is running "
                   "(create primitives before run())");
    if (!freeLists_[unit].empty()) {
        Addr addr = freeLists_[unit].back();
        freeLists_[unit].pop_back();
        return SyncPrimitive{addr, generations_[addr]};
    }
    // The driver allocates each syncronVar on its own cache line so that
    // distinct variables never false-share and the 8-LSB line index used
    // by the indexing counters is meaningful.
    Addr addr = machine_.addrSpace().allocIn(unit, kCacheLineBytes,
                                             kCacheLineBytes);
    return SyncPrimitive{addr, 0};
}

SyncPrimitive
SyncApi::allocVarInterleaved()
{
    SyncPrimitive prim = allocVar(rr_);
    rr_ = (rr_ + 1) % machine_.config().numUnits;
    return prim;
}

void
SyncApi::checkLive(const SyncPrimitive &prim) const
{
    SYNCRON_ASSERT(prim.valid(), "operation on invalid primitive handle");
    const std::uint32_t *gen = generations_.find(prim.addr);
    const std::uint32_t current = gen == nullptr ? 0 : *gen;
    SYNCRON_ASSERT(prim.gen == current,
                   "stale primitive handle @" << prim.addr << " (gen "
                       << prim.gen << ", line is at gen " << current
                       << "): handle used after destroy()");
}

void
SyncApi::destroyPrimitive(const SyncPrimitive &prim)
{
    SYNCRON_ASSERT(!machine_.inShardedWindow(),
                   "destroy while a sharded window is running (idleVar "
                   "sweeps foreign shards; destroy at quiescence)");
    checkLive(prim);
    SYNCRON_ASSERT(backend_.idleVar(prim.addr),
                   "destroy @" << prim.addr << " while backend "
                       << backend_.name()
                       << " still tracks state for it");
    backend_.releaseVar(prim.addr);
    flushObservers();
    for (OpObserver *o : observers_)
        o->onDestroy(prim.addr);
    ++generations_[prim.addr];
    freeLists_[prim.home()].push_back(prim.addr);
}

SyncOp
SyncApi::makeOp(core::Core &c, const SyncPrimitive &prim,
                const SyncRequest &req)
{
    checkLive(prim);
    ++machine_.stats().syncOps;
    return SyncOp{c, backend_, req, *this};
}

std::unique_ptr<detail::FutureState>
SyncApi::makeFutureState(core::Core &c, const SyncRequest &req)
{
    SYNCRON_ASSERT(req.kind() != OpKind::CondWait,
                   "cond_wait cannot be submitted asynchronously; use "
                   "the blocking SyncApi::wait(core, cond, lock)");
    ++machine_.stats().syncOps;
    auto state = std::make_unique<detail::FutureState>(machine_, c.id(),
                                                       c.unit(), req, *this);
    state->issuedAt = machine_.eq(c.unit()).now();
    notifyIssue(c.id(), req, state->issuedAt);
    return state;
}

SyncFuture
SyncApi::submit(core::Core &c, const SyncPrimitive &prim,
                const SyncRequest &req)
{
    checkLive(prim);
    auto state = makeFutureState(c, req);
    backend_.request(c, req, &state->gate);
    return SyncFuture{std::move(state)};
}

std::vector<SyncFuture>
SyncApi::submitBatch(core::Core &c, std::span<const SyncRequest> reqs,
                     std::span<const SyncPrimitive> prims)
{
    SYNCRON_ASSERT(reqs.size() == prims.size(),
                   "batch of " << reqs.size() << " requests with "
                               << prims.size() << " primitive handles");
    SYNCRON_ASSERT(!reqs.empty(), "submit of an empty batch");
    for (const SyncPrimitive &prim : prims)
        checkLive(prim);

    std::vector<SyncFuture> futures;
    futures.reserve(reqs.size());
    std::vector<sim::Gate *> gates;
    gates.reserve(reqs.size());
    for (const SyncRequest &req : reqs) {
        auto state = makeFutureState(c, req);
        gates.push_back(&state->gate);
        futures.emplace_back(SyncFuture{std::move(state)});
    }
    backend_.requestBatch(c, reqs, gates);
    return futures;
}

SyncFuture
SyncApi::submitAcquire(core::Core &c, const Lock &lock)
{
    return submit(c, lock, SyncRequest::lockAcquire(lock.addr));
}

SyncFuture
SyncApi::submitRelease(core::Core &c, const Lock &lock)
{
    return submit(c, lock, SyncRequest::lockRelease(lock.addr));
}

SyncFuture
SyncApi::submitWait(core::Core &c, const Barrier &barrier)
{
    SYNCRON_ASSERT(barrier.valid(), "submitted wait on invalid barrier");
    return submit(c, barrier,
                  SyncRequest::barrierWait(barrier.addr, barrier.scope,
                                           barrier.participants));
}

SyncFuture
SyncApi::submitWait(core::Core &c, const Semaphore &sem)
{
    return submit(c, sem,
                  SyncRequest::semWait(sem.addr, sem.initialResources));
}

SyncFuture
SyncApi::submitPost(core::Core &c, const Semaphore &sem)
{
    return submit(c, sem, SyncRequest::semPost(sem.addr));
}

void
SyncApi::issueDetached(core::Core &c, const SyncPrimitive &prim,
                       const SyncRequest &req)
{
    SYNCRON_ASSERT(req.releaseType(),
                   "detached issue of acquire-type "
                       << opKindName(req.kind()));
    if (machine_.crashed()) {
        // Crash teardown: guard destructors run while coroutine frames
        // unwind, but the machine is gone — the release never happened.
        return;
    }
    checkLive(prim);
    ++machine_.stats().syncOps;
    sim::Gate gate(machine_.eq(c.unit()));
    const Tick issued = machine_.eq(c.unit()).now();
    notifyIssue(c.id(), req, issued);
    backend_.request(c, req, &gate);
    SYNCRON_ASSERT(gate.opened(),
                   "backend " << backend_.name() << " did not commit "
                              << opKindName(req.kind()) << " at issue");
    machine_.stats().recordSyncLatency(
        static_cast<unsigned>(req.kind()),
        machine_.eq(c.unit()).now() + c.cyclePeriod() - issued);
    // req_async commits at issue and no coroutine ever observes this
    // operation, so the record carries completion == issue tick; a
    // trace must count every guard-scope-exit release.
    notifyOp(c.id(), req, issued, issued);
}

// -- Typed primitive creation ------------------------------------------

Lock
SyncApi::createLock(UnitId unit)
{
    return Lock{allocVar(unit)};
}

Lock
SyncApi::createLockInterleaved()
{
    return Lock{allocVarInterleaved()};
}

Barrier
SyncApi::createBarrier(UnitId unit, std::uint32_t participants,
                       BarrierScope scope)
{
    SYNCRON_ASSERT(participants >= 1,
                   "barrier with zero participants");
    return Barrier{allocVar(unit), participants, scope};
}

Semaphore
SyncApi::createSemaphore(UnitId unit, std::uint32_t initialResources)
{
    return Semaphore{allocVar(unit), initialResources};
}

CondVar
SyncApi::createCondVar(UnitId unit)
{
    return CondVar{allocVar(unit)};
}

LockSet
SyncApi::createLockSet(std::size_t count,
                       const std::vector<UnitId> &homes)
{
    const unsigned units = machine_.config().numUnits;
    std::vector<Lock> locks;
    locks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        // Sets round-robin on their own cursor (rrSet_), not the
        // single-primitive cursor rr_: interleaved singles created
        // before or between sets must not skew set placement, and a
        // set must not shift where the next single lands.
        UnitId unit;
        if (homes.empty()) {
            unit = static_cast<UnitId>(rrSet_);
            rrSet_ = (rrSet_ + 1) % units;
        } else {
            unit = homes[i % homes.size()];
        }
        locks.push_back(createLock(unit));
    }
    return LockSet{std::move(locks)};
}

LockSet
SyncApi::createLockSetByAddr(const std::vector<Addr> &protectedAddrs)
{
    std::vector<Lock> locks;
    locks.reserve(protectedAddrs.size());
    for (Addr addr : protectedAddrs)
        locks.push_back(createLock(mem::unitOfAddr(addr)));
    return LockSet{std::move(locks)};
}

void
SyncApi::destroy(LockSet &set)
{
    for (const Lock &lock : set)
        destroyPrimitive(lock);
    set.locks_.clear();
}

// -- Typed Table 2 operations ------------------------------------------

SyncOp
SyncApi::acquire(core::Core &c, const Lock &lock)
{
    return makeOp(c, lock, SyncRequest::lockAcquire(lock.addr));
}

SyncOp
SyncApi::release(core::Core &c, const Lock &lock)
{
    return makeOp(c, lock, SyncRequest::lockRelease(lock.addr));
}

ScopedLockOp
SyncApi::scoped(core::Core &c, const Lock &lock)
{
    checkLive(lock);
    ++machine_.stats().syncOps;
    return ScopedLockOp{*this, c, lock, backend_};
}

SyncOp
SyncApi::wait(core::Core &c, const Barrier &barrier)
{
    SYNCRON_ASSERT(barrier.valid(), "wait on invalid barrier");
    return makeOp(c, barrier,
                  SyncRequest::barrierWait(barrier.addr, barrier.scope,
                                           barrier.participants));
}

SyncOp
SyncApi::wait(core::Core &c, const Semaphore &sem)
{
    return makeOp(c, sem,
                  SyncRequest::semWait(sem.addr, sem.initialResources));
}

SyncOp
SyncApi::post(core::Core &c, const Semaphore &sem)
{
    return makeOp(c, sem, SyncRequest::semPost(sem.addr));
}

SyncOp
SyncApi::wait(core::Core &c, const CondVar &cond, const Lock &lock)
{
    checkLive(lock);
    return makeOp(c, cond,
                  SyncRequest::condWait(cond.addr, lock.addr));
}

SyncOp
SyncApi::signal(core::Core &c, const CondVar &cond)
{
    return makeOp(c, cond, SyncRequest::condSignal(cond.addr));
}

SyncOp
SyncApi::broadcast(core::Core &c, const CondVar &cond)
{
    return makeOp(c, cond, SyncRequest::condBroadcast(cond.addr));
}

} // namespace syncron::sync
