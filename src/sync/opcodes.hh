/**
 * @file
 * Message opcodes of SynCron's hierarchical protocol — the complete set
 * of the paper's Table 3, plus the API-level operation kinds (Table 2).
 *
 * Opcode name structure:
 *   - *_local:    NDP core <-> its local SE
 *   - *_global:   local SE <-> Master SE (may cross NDP units)
 *   - *_overflow: overflowed local SE <-> Master SE (ST overflow path)
 */

#ifndef SYNCRON_SYNC_OPCODES_HH
#define SYNCRON_SYNC_OPCODES_HH

#include <cstdint>

namespace syncron::sync {

/** API-level synchronization operations (paper Table 2). */
enum class OpKind : std::uint8_t
{
    LockAcquire,
    LockRelease,
    BarrierWaitWithinUnit,
    BarrierWaitAcrossUnits,
    SemWait,
    SemPost,
    CondWait,
    CondSignal,
    CondBroadcast,
};

/** Returns a printable name for @p kind. */
const char *opKindName(OpKind kind);

/** True for operations with acquire semantics (req_sync, blocks). */
bool isAcquireType(OpKind kind);

/** True for operations with release semantics (req_async, non-blocking). */
bool isReleaseType(OpKind kind);

/** Message opcodes (paper Table 3). 6 bits cover all values. */
enum class Op : std::uint8_t
{
    // -- Locks
    LockAcquireGlobal,
    LockAcquireLocal,
    LockReleaseGlobal,
    LockReleaseLocal,
    LockGrantGlobal,
    LockGrantLocal,
    LockAcquireOverflow,
    LockReleaseOverflow,
    LockGrantOverflow,

    // -- Barriers
    BarrierWaitGlobal,
    BarrierWaitLocalWithinUnit,
    BarrierWaitLocalAcrossUnits,
    BarrierDepartGlobal,
    BarrierDepartLocal,
    BarrierWaitOverflow,
    BarrierDepartureOverflow,

    // -- Semaphores
    SemWaitGlobal,
    SemWaitLocal,
    SemGrantGlobal,
    SemGrantLocal,
    SemPostGlobal,
    SemPostLocal,
    SemWaitOverflow,
    SemGrantOverflow,
    SemPostOverflow,

    // -- Condition variables
    CondWaitGlobal,
    CondWaitLocal,
    CondSignalGlobal,
    CondSignalLocal,
    CondBroadGlobal,
    CondBroadLocal,
    CondGrantGlobal,
    CondGrantLocal,
    CondWaitOverflow,
    CondSignalOverflow,
    CondBroadOverflow,
    CondGrantOverflow,

    // -- Other
    DecreaseIndexingCounter,
};

/** Returns a printable name for @p op. */
const char *opName(Op op);

// Inline: the SE consults these on every message it services.

/** True for the overflow-path opcodes. */
constexpr bool
isOverflowOp(Op op)
{
    switch (op) {
      case Op::LockAcquireOverflow:
      case Op::LockReleaseOverflow:
      case Op::LockGrantOverflow:
      case Op::BarrierWaitOverflow:
      case Op::BarrierDepartureOverflow:
      case Op::SemWaitOverflow:
      case Op::SemGrantOverflow:
      case Op::SemPostOverflow:
      case Op::CondWaitOverflow:
      case Op::CondSignalOverflow:
      case Op::CondBroadOverflow:
      case Op::CondGrantOverflow:
        return true;
      default:
        return false;
    }
}

/** True for opcodes exchanged between SEs (global/overflow/decrease). */
constexpr bool
isGlobalOp(Op op)
{
    switch (op) {
      case Op::LockAcquireGlobal:
      case Op::LockReleaseGlobal:
      case Op::LockGrantGlobal:
      case Op::BarrierWaitGlobal:
      case Op::BarrierDepartGlobal:
      case Op::SemWaitGlobal:
      case Op::SemGrantGlobal:
      case Op::SemPostGlobal:
      case Op::CondWaitGlobal:
      case Op::CondSignalGlobal:
      case Op::CondBroadGlobal:
      case Op::CondGrantGlobal:
      case Op::DecreaseIndexingCounter:
        return true;
      default:
        return isOverflowOp(op);
    }
}

/** True for opcodes with acquire-type semantics (indexing counter ++). */
constexpr bool
isAcquireOp(Op op)
{
    switch (op) {
      case Op::LockAcquireGlobal:
      case Op::LockAcquireLocal:
      case Op::LockAcquireOverflow:
      case Op::BarrierWaitGlobal:
      case Op::BarrierWaitLocalWithinUnit:
      case Op::BarrierWaitLocalAcrossUnits:
      case Op::BarrierWaitOverflow:
      case Op::SemWaitGlobal:
      case Op::SemWaitLocal:
      case Op::SemWaitOverflow:
      case Op::CondWaitGlobal:
      case Op::CondWaitLocal:
      case Op::CondWaitOverflow:
        return true;
      default:
        return false;
    }
}

/** True for opcodes with release-type semantics (indexing counter --). */
constexpr bool
isReleaseOp(Op op)
{
    switch (op) {
      case Op::LockReleaseGlobal:
      case Op::LockReleaseLocal:
      case Op::LockReleaseOverflow:
      case Op::SemPostGlobal:
      case Op::SemPostLocal:
      case Op::SemPostOverflow:
      case Op::CondSignalGlobal:
      case Op::CondSignalLocal:
      case Op::CondSignalOverflow:
      case Op::CondBroadGlobal:
      case Op::CondBroadLocal:
      case Op::CondBroadOverflow:
        return true;
      default:
        return false;
    }
}

} // namespace syncron::sync

#endif // SYNCRON_SYNC_OPCODES_HH
