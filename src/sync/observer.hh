/**
 * @file
 * Observer hook over the synchronization-operation stream.
 *
 * Every consumer of the stream — trace capture, the live analyzer, the
 * durability WAL — is an OpObserver registered with
 * SyncApi::addObserver(), so they compose in one run and see identical
 * streams. Besides completions an observer sees two events a trace
 * does not carry: operation *issue* (needed to model cond_wait's
 * release-the-lock-at-issue semantics) and shadow-state *accesses*
 * reported by workloads through SyncApi::accessHint() (the input of
 * the Eraser-style lockset race checker).
 *
 * Events arrive in the order their hooks fire, which is not completion
 * order (a resolved SyncFuture dropped unawaited reports its earlier
 * ready tick). The contract is per-core program order inside one global
 * fire order; the cores are in-order. Callbacks run on one thread at a
 * time, never inside a sharded window.
 */

#ifndef SYNCRON_SYNC_OBSERVER_HH
#define SYNCRON_SYNC_OBSERVER_HH

#include "common/types.hh"
#include "sync/request.hh"

namespace syncron::sync {

/** Live observer of the synchronization-operation stream. */
class OpObserver
{
  public:
    virtual ~OpObserver() = default;

    /**
     * An operation was issued to the backend. Only cond_wait semantics
     * need this (the associated lock is released at issue, long before
     * the wait completes); the default ignores it.
     */
    virtual void onIssue(CoreId, const SyncRequest &, Tick) {}

    /** An operation completed. */
    virtual void onComplete(CoreId core, const SyncRequest &req,
                            Tick issued, Tick completed) = 0;

    /**
     * A workload touched shadow state at @p addr while holding whatever
     * locks the observer has seen it acquire — the lockset checker's
     * access event, reported via SyncApi::accessHint().
     */
    virtual void onAccess(CoreId, Addr, bool /*isWrite*/, Tick) {}

    /** A primitive's line was destroyed (handle invalidated). */
    virtual void onDestroy(Addr) {}
};

} // namespace syncron::sync

#endif // SYNCRON_SYNC_OBSERVER_HH
