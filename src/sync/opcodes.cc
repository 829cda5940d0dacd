#include "sync/opcodes.hh"

namespace syncron::sync {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::LockAcquire: return "lock_acquire";
      case OpKind::LockRelease: return "lock_release";
      case OpKind::BarrierWaitWithinUnit: return "barrier_wait_within_unit";
      case OpKind::BarrierWaitAcrossUnits:
        return "barrier_wait_across_units";
      case OpKind::SemWait: return "sem_wait";
      case OpKind::SemPost: return "sem_post";
      case OpKind::CondWait: return "cond_wait";
      case OpKind::CondSignal: return "cond_signal";
      case OpKind::CondBroadcast: return "cond_broadcast";
    }
    return "?";
}

bool
isAcquireType(OpKind kind)
{
    switch (kind) {
      case OpKind::LockAcquire:
      case OpKind::BarrierWaitWithinUnit:
      case OpKind::BarrierWaitAcrossUnits:
      case OpKind::SemWait:
      case OpKind::CondWait:
        return true;
      default:
        return false;
    }
}

bool
isReleaseType(OpKind kind)
{
    return !isAcquireType(kind);
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::LockAcquireGlobal: return "lock_acquire_global";
      case Op::LockAcquireLocal: return "lock_acquire_local";
      case Op::LockReleaseGlobal: return "lock_release_global";
      case Op::LockReleaseLocal: return "lock_release_local";
      case Op::LockGrantGlobal: return "lock_grant_global";
      case Op::LockGrantLocal: return "lock_grant_local";
      case Op::LockAcquireOverflow: return "lock_acquire_overflow";
      case Op::LockReleaseOverflow: return "lock_release_overflow";
      case Op::LockGrantOverflow: return "lock_grant_overflow";
      case Op::BarrierWaitGlobal: return "barrier_wait_global";
      case Op::BarrierWaitLocalWithinUnit:
        return "barrier_wait_local_within_unit";
      case Op::BarrierWaitLocalAcrossUnits:
        return "barrier_wait_local_across_units";
      case Op::BarrierDepartGlobal: return "barrier_depart_global";
      case Op::BarrierDepartLocal: return "barrier_depart_local";
      case Op::BarrierWaitOverflow: return "barrier_wait_overflow";
      case Op::BarrierDepartureOverflow:
        return "barrier_departure_overflow";
      case Op::SemWaitGlobal: return "sem_wait_global";
      case Op::SemWaitLocal: return "sem_wait_local";
      case Op::SemGrantGlobal: return "sem_grant_global";
      case Op::SemGrantLocal: return "sem_grant_local";
      case Op::SemPostGlobal: return "sem_post_global";
      case Op::SemPostLocal: return "sem_post_local";
      case Op::SemWaitOverflow: return "sem_wait_overflow";
      case Op::SemGrantOverflow: return "sem_grant_overflow";
      case Op::SemPostOverflow: return "sem_post_overflow";
      case Op::CondWaitGlobal: return "cond_wait_global";
      case Op::CondWaitLocal: return "cond_wait_local";
      case Op::CondSignalGlobal: return "cond_signal_global";
      case Op::CondSignalLocal: return "cond_signal_local";
      case Op::CondBroadGlobal: return "cond_broad_global";
      case Op::CondBroadLocal: return "cond_broad_local";
      case Op::CondGrantGlobal: return "cond_grant_global";
      case Op::CondGrantLocal: return "cond_grant_local";
      case Op::CondWaitOverflow: return "cond_wait_overflow";
      case Op::CondSignalOverflow: return "cond_signal_overflow";
      case Op::CondBroadOverflow: return "cond_broad_overflow";
      case Op::CondGrantOverflow: return "cond_grant_overflow";
      case Op::DecreaseIndexingCounter:
        return "decrease_indexing_counter";
    }
    return "?";
}

} // namespace syncron::sync
