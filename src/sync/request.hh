/**
 * @file
 * Typed synchronization-request and -response descriptors — the v2
 * backend-boundary types.
 *
 * A SyncRequest replaces the old raw (OpKind, Addr, uint64 info) tuple:
 * it is built through named factories, carries a payload whose meaning is
 * discriminated by the operation kind (barrier participant count,
 * semaphore initial resources, or the lock address associated with a
 * cond_wait — the three uses of the paper's MessageInfo field, Fig. 5),
 * and exposes only kind-checked accessors, so backends never decode
 * magic integers.
 *
 * The wire encoding still exists — SynCron's hardware messages carry a
 * 64-bit MessageInfo field — but it is produced and parsed in exactly
 * one place: messageInfo() / fromMessageInfo() below.
 *
 * A SyncResponse is what a completed operation returns to the awaiting
 * coroutine: the operation kind, issue/completion timestamps (feeding
 * the per-OpKind latency statistics), and the backend's gate payload.
 */

#ifndef SYNCRON_SYNC_REQUEST_HH
#define SYNCRON_SYNC_REQUEST_HH

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"
#include "sync/opcodes.hh"

namespace syncron::sync {

/** Which cores a barrier coordinates (paper Table 2). */
enum class BarrierScope : std::uint8_t
{
    WithinUnit,  ///< participants all live in the variable's home unit
    AcrossUnits, ///< participants span NDP units (hierarchical protocol)
};

/** Typed request descriptor consumed by every SyncBackend. */
class SyncRequest
{
  public:
    // -- Named factories (the only way to build a request) -------------
    static SyncRequest
    lockAcquire(Addr var)
    {
        return SyncRequest{OpKind::LockAcquire, var, 0};
    }

    static SyncRequest
    lockRelease(Addr var)
    {
        return SyncRequest{OpKind::LockRelease, var, 0};
    }

    static SyncRequest
    barrierWait(Addr var, BarrierScope scope, std::uint32_t participants)
    {
        SYNCRON_ASSERT(participants >= 1,
                       "barrier @" << var << " with zero participants");
        return SyncRequest{scope == BarrierScope::WithinUnit
                               ? OpKind::BarrierWaitWithinUnit
                               : OpKind::BarrierWaitAcrossUnits,
                           var, participants};
    }

    static SyncRequest
    semWait(Addr var, std::uint32_t initialResources)
    {
        return SyncRequest{OpKind::SemWait, var, initialResources};
    }

    static SyncRequest
    semPost(Addr var)
    {
        return SyncRequest{OpKind::SemPost, var, 0};
    }

    static SyncRequest
    condWait(Addr cond, Addr assocLock)
    {
        SYNCRON_ASSERT(assocLock != 0,
                       "cond_wait @" << cond << " without associated lock");
        return SyncRequest{OpKind::CondWait, cond, assocLock};
    }

    static SyncRequest
    condSignal(Addr cond)
    {
        return SyncRequest{OpKind::CondSignal, cond, 0};
    }

    static SyncRequest
    condBroadcast(Addr cond)
    {
        return SyncRequest{OpKind::CondBroadcast, cond, 0};
    }

    /**
     * Re-types a request from the Fig. 5 wire encoding — the inverse of
     * messageInfo(). Only the modeled hardware/software boundary (e.g.
     * the MiSAR abort path re-issuing an in-flight message to the
     * software fallback) may use this.
     */
    static SyncRequest
    fromMessageInfo(OpKind kind, Addr var, std::uint64_t info)
    {
        return SyncRequest{kind, var, info};
    }

    // -- Kind and variable ---------------------------------------------
    OpKind kind() const { return kind_; }
    Addr var() const { return var_; }

    /** req_sync semantics: commits when the response returns. */
    bool acquireType() const { return isAcquireType(kind_); }

    /** req_async semantics: commits once issued to the network. */
    bool releaseType() const { return isReleaseType(kind_); }

    // -- Kind-checked payload accessors --------------------------------
    /** Barrier participant count (barrier_wait only). */
    std::uint32_t
    participants() const
    {
        SYNCRON_ASSERT(kind_ == OpKind::BarrierWaitWithinUnit
                           || kind_ == OpKind::BarrierWaitAcrossUnits,
                       "participants() on " << opKindName(kind_));
        return static_cast<std::uint32_t>(payload_);
    }

    /** Semaphore initial resources (sem_wait only). */
    std::uint32_t
    resources() const
    {
        SYNCRON_ASSERT(kind_ == OpKind::SemWait,
                       "resources() on " << opKindName(kind_));
        return static_cast<std::uint32_t>(payload_);
    }

    /** Address of the lock associated with a cond_wait. */
    Addr
    condLock() const
    {
        SYNCRON_ASSERT(kind_ == OpKind::CondWait,
                       "condLock() on " << opKindName(kind_));
        return static_cast<Addr>(payload_);
    }

    /** MessageInfo wire encoding (Fig. 5) for SyncMessage::info. */
    std::uint64_t messageInfo() const { return payload_; }

    friend bool operator==(const SyncRequest &,
                           const SyncRequest &) = default;

  private:
    SyncRequest(OpKind kind, Addr var, std::uint64_t payload)
        : var_(var), payload_(payload), kind_(kind)
    {}

    Addr var_ = 0;
    std::uint64_t payload_ = 0; ///< discriminated by kind_
    OpKind kind_;
};
static_assert(sizeof(SyncRequest) == 24);

/**
 * Completion record of one synchronization operation, carried back
 * through the gate to the awaiting coroutine by SyncOp::await_resume().
 */
struct SyncResponse
{
    OpKind kind{};
    Tick issuedAt = 0;    ///< tick the request was issued to the backend
    Tick completedAt = 0; ///< tick the core observed completion
    std::uint64_t payload = 0; ///< backend-specific gate payload

    /** Core-observed operation latency. */
    Tick latency() const { return completedAt - issuedAt; }
};

} // namespace syncron::sync

#endif // SYNCRON_SYNC_REQUEST_HH
