/**
 * @file
 * SynCron's programming interface (paper Table 2), independent of the
 * backend actually providing synchronization.
 *
 * Primitives are first-class handles created by the api — Lock, Barrier
 * (participant count + scope fixed at creation), Semaphore (initial
 * resources fixed at creation), CondVar — and operations are awaitables
 * built from those handles:
 *
 *   sync::Lock lock = api.createLock(homeUnit);
 *   co_await api.acquire(core, lock);
 *   ... critical section ...
 *   co_await api.release(core, lock);
 *
 * or, with the RAII guard:
 *
 *   {
 *       sync::ScopedLock guard = co_await api.scoped(core, lock);
 *       ... critical section ...
 *       co_await guard.unlock();     // timed release (preferred)
 *   }                                // or: scope exit releases
 *
 * Operations also exist in a split issue/completion form: submit*()
 * issues the request immediately and returns a move-only SyncFuture, so
 * a core can keep several operations in flight (hand-over-hand acquire
 * prefetch, semaphore fan-out) and co_await each future when it needs
 * the response; SyncBatch collects several requests and issues them in
 * one backend call, letting opted-in backends coalesce same-destination
 * members into a single network message. The blocking SyncOp form above
 * is the one-op special case and remains the default idiom.
 *
 * Handle creation through this api is the only way to mint a primitive:
 * there is no raw-variable surface, and every handle is generation-
 * tagged so use after destroy() panics instead of aliasing the recycled
 * line. Fine-grained workloads create their whole lock population at
 * once with createLockSet() (explicit home units or homed with the
 * protected data's addresses).
 *
 * Acquire-type operations map to the req_sync ISA instruction (commit
 * when the response returns); release-type operations map to req_async
 * (commit once issued). Both are realized as awaitables whose completion
 * gate the backend opens; co_await returns a SyncResponse carrying the
 * issue/completion timestamps and the backend's gate payload.
 */

#ifndef SYNCRON_SYNC_API_HH
#define SYNCRON_SYNC_API_HH

#include <coroutine>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/addr_map.hh"
#include "core/core.hh"
#include "sim/process.hh"
#include "sync/backend.hh"
#include "sync/observer.hh"
#include "sync/primitives.hh"
#include "sync/request.hh"
#include "system/machine.hh"

namespace syncron::sync {

class SyncApi;

namespace detail {

/**
 * Records one completed operation in the machine's per-OpKind latency
 * statistics and fans it out through SyncApi::notifyOp() to every
 * registered observer. Shared by the blocking SyncOp awaitable and the
 * asynchronous SyncFuture so both forms are indistinguishable to
 * observers.
 */
void recordCompletion(Machine &machine, SyncApi &api, CoreId core,
                      const SyncRequest &req, Tick issued, Tick completed);

/** Forwards an operation-issue event to the api's observers. */
void recordIssue(SyncApi &api, CoreId core, const SyncRequest &req,
                 Tick issued);

/**
 * State of one in-flight asynchronous operation. The backend keeps a
 * pointer to the gate from submit until it opens it, so the gate needs
 * a stable address while the owning SyncFuture moves freely — which is
 * exactly what pinning this state behind a unique_ptr provides.
 */
struct FutureState
{
    FutureState(Machine &machine, CoreId core, UnitId unit,
                const SyncRequest &req, SyncApi &api)
        : machine(machine), gate(machine.eq(unit)), req(req), api(api),
          core(core), unit(unit)
    {}

    Machine &machine;
    sim::Gate gate; ///< lives on the issuing core's shard queue
    SyncRequest req;
    SyncApi &api;
    CoreId core;
    UnitId unit; ///< issuing core's unit (shard-local clock reads)
    Tick issuedAt = 0;
    bool recorded = false;

    /** Records latency + notifies the observers exactly once. */
    void
    finalize(Tick completedAt)
    {
        if (recorded)
            return;
        recorded = true;
        recordCompletion(machine, api, core, req, issuedAt, completedAt);
    }
};

} // namespace detail

/**
 * Handle to one submitted synchronization operation — the split
 * issue/completion form of the api. SyncApi::submit*() issues the
 * request to the backend immediately and returns the future; the core
 * keeps computing (or submits more operations) and co_awaits the future
 * when it needs the result:
 *
 *   sync::SyncFuture next = api.submitAcquire(core, locks[i + 1]);
 *   co_await core.load(node.addr, 16);   // overlapped with the acquire
 *   co_await next;                       // yields the SyncResponse
 *
 * Move-only. A future must not be destroyed while its operation is
 * still in flight (that would dangle the backend's completion gate —
 * the destructor panics); a resolved future may be dropped without
 * being awaited, in which case its completion is still recorded at the
 * gate's ready tick (so statistics and captured traces see every
 * operation exactly once).
 */
class SyncFuture
{
  public:
    SyncFuture(SyncFuture &&) noexcept = default;

    SyncFuture &
    operator=(SyncFuture &&other)
    {
        if (this != &other) {
            finalizeState();
            state_ = std::move(other.state_);
        }
        return *this;
    }

    SyncFuture(const SyncFuture &) = delete;
    SyncFuture &operator=(const SyncFuture &) = delete;

    // noexcept: the in-flight panic in finalizeState() terminates (its
    // message is printed before the throw) — a dropped pending future
    // would otherwise dangle the backend's gate pointer.
    ~SyncFuture() { finalizeState(); }

    /** True while this future refers to a submitted operation. */
    bool valid() const { return state_ != nullptr; }

    /** True once the backend has completed the operation. */
    bool
    resolved() const
    {
        return state_ != nullptr && state_->gate.opened();
    }

    /** The request this future completes. */
    const SyncRequest &
    request() const
    {
        SYNCRON_ASSERT(state_ != nullptr, "request() on an empty future");
        return state_->req;
    }

    // -- Awaitable interface -------------------------------------------
    bool
    await_ready() const
    {
        SYNCRON_ASSERT(state_ != nullptr, "co_await on an empty future");
        return state_->gate.await_ready();
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        state_->gate.await_suspend(h);
    }

    SyncResponse
    await_resume()
    {
        SYNCRON_ASSERT(state_ != nullptr, "co_await on an empty future");
        SyncResponse resp;
        resp.kind = state_->req.kind();
        resp.issuedAt = state_->issuedAt;
        resp.completedAt = state_->machine.eq(state_->unit).now();
        resp.payload = state_->gate.await_resume();
        state_->finalize(resp.completedAt);
        return resp;
    }

  private:
    friend class SyncApi;

    explicit SyncFuture(std::unique_ptr<detail::FutureState> state)
        : state_(std::move(state))
    {}

    /**
     * Accounts for a dropped-but-resolved future; panics when the
     * operation is still in flight (the backend still holds the gate).
     */
    void
    finalizeState()
    {
        if (state_ == nullptr)
            return;
        if (state_->machine.crashed()) {
            // Crash teardown: the backend died with the operation in
            // flight, and nothing after the crash tick may enter the
            // durable record stream — drop silently.
            state_.reset();
            return;
        }
        SYNCRON_ASSERT(state_->gate.opened(),
                       "SyncFuture for "
                           << opKindName(state_->req.kind()) << " @"
                           << state_->req.var()
                           << " destroyed while the operation is still "
                              "in flight");
        state_->finalize(state_->gate.readyAt());
        state_.reset();
    }

    std::unique_ptr<detail::FutureState> state_;
};

/**
 * Awaitable synchronization operation — the blocking form of the api,
 * semantically `co_await api.submit...(...)` in one expression. The
 * request is issued to the backend when the coroutine suspends; the
 * backend opens the gate when the operation completes (immediately for
 * release-type operations). co_await yields the operation's
 * SyncResponse and records the observed latency in the machine's
 * per-OpKind statistics. Unlike SyncFuture, the gate lives on the
 * awaiting coroutine's frame, so the blocking path allocates nothing.
 */
class SyncOp
{
  public:
    SyncOp(core::Core &core, SyncBackend &backend, const SyncRequest &req,
           SyncApi &api)
        : core_(core), backend_(backend),
          gate_(core.machine().eq(core.unit())), req_(req), api_(api)
    {}

    SyncOp(const SyncOp &) = delete;
    SyncOp &operator=(const SyncOp &) = delete;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        issuedAt_ = core_.machine().eq(core_.unit()).now();
        detail::recordIssue(api_, core_.id(), req_, issuedAt_);
        backend_.request(core_, req_, &gate_);
        // The gate handles both orders: backend already opened it
        // (schedule resume) or will open it later (park the handle).
        gate_.await_suspend(h);
    }

    SyncResponse
    await_resume()
    {
        SyncResponse resp;
        resp.kind = req_.kind();
        resp.issuedAt = issuedAt_;
        resp.completedAt = core_.machine().eq(core_.unit()).now();
        resp.payload = gate_.await_resume();
        detail::recordCompletion(core_.machine(), api_, core_.id(), req_,
                                 issuedAt_, resp.completedAt);
        return resp;
    }

  private:
    core::Core &core_;
    SyncBackend &backend_;
    sim::Gate gate_;
    SyncRequest req_;
    SyncApi &api_;
    Tick issuedAt_ = 0;
};

/**
 * Move-only lock guard. Obtained by co_await-ing SyncApi::scoped();
 * releases the lock on scope exit unless unlock() already did. The
 * scope-exit release is issued fire-and-forget (legal for req_async
 * operations, which commit at issue); prefer co_await guard.unlock()
 * when the workload should observe the release's issue cycle.
 *
 * Move assignment releases the currently held lock (if any) before
 * adopting the other guard, so hand-over-hand traversals are guard
 * chains:
 *
 *   sync::ScopedLock held = co_await api.scoped(core, first);
 *   for (...) {
 *       sync::ScopedLock next = co_await api.scoped(core, child);
 *       co_await held.unlock();
 *       held = std::move(next);
 *   }
 */
class ScopedLock
{
  public:
    ScopedLock(ScopedLock &&other) noexcept
        : api_(other.api_), core_(other.core_), lock_(other.lock_),
          engaged_(other.engaged_)
    {
        other.engaged_ = false;
    }

    /** Releases the held lock (fire-and-forget), then adopts @p other. */
    ScopedLock &operator=(ScopedLock &&other) noexcept;

    ScopedLock(const ScopedLock &) = delete;
    ScopedLock &operator=(const ScopedLock &) = delete;

    ~ScopedLock();

    /** Awaitable explicit release; the guard disengages immediately. */
    SyncOp unlock();

    /** True while this guard still owns the lock. */
    bool owns() const { return engaged_; }

  private:
    friend class ScopedLockOp;

    ScopedLock(SyncApi &api, core::Core &core, const Lock &lock)
        : api_(&api), core_(&core), lock_(lock)
    {}

    /** Issues the fire-and-forget release if still engaged. */
    void releaseDetached();

    SyncApi *api_;
    core::Core *core_;
    Lock lock_;
    bool engaged_ = true;
};

/** Awaitable lock acquisition yielding a ScopedLock guard. */
class ScopedLockOp
{
  public:
    ScopedLockOp(SyncApi &api, core::Core &core, const Lock &lock,
                 SyncBackend &backend)
        : api_(api), core_(core), lock_(lock),
          inner_(core, backend, SyncRequest::lockAcquire(lock.addr), api)
    {}

    ScopedLockOp(const ScopedLockOp &) = delete;
    ScopedLockOp &operator=(const ScopedLockOp &) = delete;

    bool await_ready() const noexcept { return inner_.await_ready(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        inner_.await_suspend(h);
    }

    ScopedLock
    await_resume()
    {
        inner_.await_resume();
        return ScopedLock{api_, core_, lock_};
    }

  private:
    SyncApi &api_;
    core::Core &core_;
    Lock lock_;
    SyncOp inner_;
};

/**
 * Builder collecting several synchronization requests issued by one
 * core in a single SyncApi/backend call:
 *
 *   sync::SyncBatch batch(api, core);
 *   for (const sync::Semaphore &sem : sems)
 *       batch.post(sem);
 *   std::vector<sync::SyncFuture> posts = batch.submit();
 *   ... compute while the posts are in flight ...
 *   for (sync::SyncFuture &f : posts)
 *       co_await f;
 *
 * Backends that opt into requestBatch() coalesce members targeting the
 * same station into one network message (the Fig. 5 header is paid once
 * per batch instead of once per op); every other backend services the
 * batch as independent requests. submit() clears the builder, so one
 * SyncBatch can be reused across rounds.
 *
 * cond_wait is deliberately absent: its release-the-lock/re-acquire
 * coupling requires the issuing core to be suspended, so it only exists
 * in the blocking form (SyncApi::wait).
 */
class SyncBatch
{
  public:
    SyncBatch(SyncApi &api, core::Core &core) : api_(&api), core_(&core) {}

    SyncBatch &acquire(const Lock &lock);
    SyncBatch &release(const Lock &lock);
    SyncBatch &wait(const Barrier &barrier);
    SyncBatch &wait(const Semaphore &sem);
    SyncBatch &post(const Semaphore &sem);
    SyncBatch &signal(const CondVar &cond);
    SyncBatch &broadcast(const CondVar &cond);

    std::size_t size() const { return reqs_.size(); }
    bool empty() const { return reqs_.empty(); }

    /**
     * Issues every collected request in one backend call and clears the
     * builder. futures[i] completes the i-th collected request.
     */
    std::vector<SyncFuture> submit();

  private:
    SyncBatch &add(const SyncPrimitive &prim, const SyncRequest &req);

    SyncApi *api_;
    core::Core *core_;
    std::vector<SyncRequest> reqs_;
    std::vector<SyncPrimitive> prims_; ///< handle per request (liveness)
};

/** Factory for synchronization primitives + the Table 2 operations. */
class SyncApi : private Machine::WindowListener
{
  public:
    SyncApi(Machine &machine, SyncBackend &backend);
    ~SyncApi() override;

    SyncApi(const SyncApi &) = delete;
    SyncApi &operator=(const SyncApi &) = delete;

    // -- Typed primitive creation --------------------------------------
    /** Allocates a lock homed in @p unit. */
    Lock createLock(UnitId unit);
    /** Allocates a lock round-robin across units. */
    Lock createLockInterleaved();
    /** Allocates a barrier for @p participants cores. */
    Barrier createBarrier(UnitId unit, std::uint32_t participants,
                          BarrierScope scope = BarrierScope::AcrossUnits);
    /** Allocates a counting semaphore with @p initialResources. */
    Semaphore createSemaphore(UnitId unit,
                              std::uint32_t initialResources);
    /** Allocates a condition variable. */
    CondVar createCondVar(UnitId unit);

    /**
     * Allocates @p count fine-grained locks. Lock i is homed in
     * homes[i % homes.size()]; an empty @p homes distributes the locks
     * round-robin across all units.
     */
    LockSet createLockSet(std::size_t count,
                          const std::vector<UnitId> &homes = {});

    /**
     * Allocates one lock per protected datum, homed in the unit that
     * owns the datum's address — the distribute-by-address placement
     * used by per-node/per-element locking (the lock always lives with
     * the data it protects, so its Master SE is the data's local SE).
     */
    LockSet createLockSetByAddr(const std::vector<Addr> &protectedAddrs);

    /**
     * Releases a primitive's line for reuse. Panics when the backend
     * still tracks state for it, and bumps the line's generation so
     * stale handles are caught on use.
     */
    void destroy(const Lock &lock) { destroyPrimitive(lock); }
    void destroy(const Barrier &barrier) { destroyPrimitive(barrier); }
    void destroy(const Semaphore &sem) { destroyPrimitive(sem); }
    void destroy(const CondVar &cond) { destroyPrimitive(cond); }
    /** Destroys every lock in the set and empties it. */
    void destroy(LockSet &set);

    // -- Asynchronous submission (split issue/completion) --------------
    /**
     * Issues @p req against @p prim immediately and returns the future
     * the core co_awaits for the response — the pipelined form of the
     * Table 2 operations. Any number of futures may be in flight per
     * core. cond_wait cannot be submitted (see SyncBatch).
     */
    SyncFuture submit(core::Core &c, const SyncPrimitive &prim,
                      const SyncRequest &req);

    SyncFuture submitAcquire(core::Core &c, const Lock &lock);
    SyncFuture submitRelease(core::Core &c, const Lock &lock);
    SyncFuture submitWait(core::Core &c, const Barrier &barrier);
    SyncFuture submitWait(core::Core &c, const Semaphore &sem);
    SyncFuture submitPost(core::Core &c, const Semaphore &sem);

    /**
     * Issues every request of a batch in one backend call
     * (SyncBackend::requestBatch); prims[i] is the primitive handle
     * behind reqs[i], used for liveness checking. Normally reached
     * through SyncBatch::submit().
     */
    std::vector<SyncFuture> submitBatch(core::Core &c,
                                        std::span<const SyncRequest> reqs,
                                        std::span<const SyncPrimitive> prims);

    // -- Typed Table 2 operations --------------------------------------
    SyncOp acquire(core::Core &c, const Lock &lock);
    SyncOp release(core::Core &c, const Lock &lock);
    /** Acquires @p lock and yields a scope-exit-releasing guard. */
    ScopedLockOp scoped(core::Core &c, const Lock &lock);
    SyncOp wait(core::Core &c, const Barrier &barrier);
    SyncOp wait(core::Core &c, const Semaphore &sem);
    SyncOp post(core::Core &c, const Semaphore &sem);
    SyncOp wait(core::Core &c, const CondVar &cond, const Lock &lock);
    SyncOp signal(core::Core &c, const CondVar &cond);
    SyncOp broadcast(core::Core &c, const CondVar &cond);

    SyncBackend &backend() { return backend_; }

    /**
     * Registers @p observer for the operation stream: every issued and
     * completed operation, every accessHint() and every destroy, in
     * registration order per event. Observers are single-threaded. A
     * 1-shard machine calls them directly; on a sharded machine each
     * hook appends to the issuing shard's lane, and the lanes are
     * merged by (tick the hook fired, core, lane sequence) and replayed
     * at every window end, before a destroy, and by
     * flushObservers(). Either way each core's events arrive in program
     * order inside one global fire order. The observer must outlive
     * every operation issued while it is registered; there is no
     * removal.
     */
    void addObserver(OpObserver *observer);

    /** Forwards to addObserver() for the callers in perfbench/; new
     *  code calls addObserver() (the contract lint enforces it). */
    void setObserver(OpObserver *observer) { addObserver(observer); }
    void addAuxObserver(OpObserver *observer) { addObserver(observer); }

    /**
     * Replays every buffered lane event into the observers (a no-op on
     * a 1-shard machine). Quiescence only; NdpSystem::run() calls it
     * when the kernel returns.
     */
    void flushObservers();

    /**
     * Single completion fan-out: per-OpKind latency statistics are
     * recorded by the caller (detail::recordCompletion); this forwards
     * the completed operation to the observers.
     */
    void
    notifyOp(CoreId core, const SyncRequest &req, Tick issued,
             Tick completed)
    {
        if (!lanes_.empty())
            return buffer({LaneEvent::Complete, core, req, issued,
                           completed});
        for (OpObserver *o : observers_)
            o->onComplete(core, req, issued, completed);
    }

    /** Issue-side fan-out (cond_wait releases its lock at issue). */
    void
    notifyIssue(CoreId core, const SyncRequest &req, Tick issued)
    {
        if (!lanes_.empty())
            return buffer({LaneEvent::Issue, core, req, issued, issued});
        for (OpObserver *o : observers_)
            o->onIssue(core, req, issued);
    }

    /**
     * Reports a shadow-state access to the observers — the
     * workload-side input of the lockset race checker. Call it for
     * reads/writes of data a lock (or LockSet member) is meant to
     * protect; accesses that are lock-free by design (e.g. optimistic
     * traversals that re-validate) should not be hinted. A no-op
     * without an observer.
     */
    void
    accessHint(const core::Core &c, Addr addr, bool isWrite)
    {
        const Tick now = machine_.eq(c.unit()).now();
        if (!lanes_.empty())
            return buffer({LaneEvent::Access, c.id(),
                           SyncRequest::lockAcquire(addr), now, now,
                           isWrite});
        for (OpObserver *o : observers_)
            o->onAccess(c.id(), addr, isWrite, now);
    }

  private:
    friend class ScopedLock;

    /** Allocates a fresh (or recycled) line homed in @p unit. */
    SyncPrimitive allocVar(UnitId unit);

    /** Allocates a line round-robin across units. */
    SyncPrimitive allocVarInterleaved();

    void destroyPrimitive(const SyncPrimitive &prim);

    SyncOp makeOp(core::Core &c, const SyncPrimitive &prim,
                  const SyncRequest &req);

    /** Allocates the pinned state of one submitted operation. */
    std::unique_ptr<detail::FutureState>
    makeFutureState(core::Core &c, const SyncRequest &req);

    /** Panics when @p prim is stale (destroyed or recycled). */
    void checkLive(const SyncPrimitive &prim) const;

    /**
     * Issues a release-type request without an awaiting coroutine (the
     * ScopedLock scope-exit path). Legal only because req_async
     * operations commit at issue: the backend must open the gate before
     * request() returns.
     */
    void issueDetached(core::Core &c, const SyncPrimitive &prim,
                       const SyncRequest &req);

    /** One observer hook call buffered on a sharded machine. */
    struct LaneEvent
    {
        enum Kind : std::uint8_t
        {
            Issue,
            Complete,
            Access, ///< req carries the accessed address
        };

        Kind kind;
        CoreId core;
        SyncRequest req;
        Tick issued;
        Tick completed; ///< Complete; the access tick for Access
        bool isWrite = false;
        Tick fired = 0;        ///< merge key: tick the hook fired...
        std::uint64_t seq = 0; ///< ...then core, then lane order
    };

    /** One shard's buffered events. */
    struct Lane
    {
        std::vector<LaneEvent> events;
    };

    /** Appends @p ev to its core's shard lane, stamped for the merge. */
    void buffer(LaneEvent ev);

    /** Window-end callout: replays the window's lanes. */
    void windowEnded() override { flushObservers(); }

    Machine &machine_;
    SyncBackend &backend_;
    std::vector<OpObserver *> observers_;
    /// One lane per shard, only when sharded and observed.
    std::vector<Lane> lanes_;
    std::vector<LaneEvent> merged_; ///< flush buffer, capacity kept
    std::vector<std::vector<Addr>> freeLists_; ///< per-unit recycled lines
    /// Current allocation generation per line (absent = 0); looked up
    /// by checkLive() on every operation.
    common::AddrMap<std::uint32_t> generations_;
    unsigned rr_ = 0;    ///< createLockInterleaved / allocVarInterleaved
    unsigned rrSet_ = 0; ///< createLockSet's own round-robin cursor
};

} // namespace syncron::sync

#endif // SYNCRON_SYNC_API_HH
