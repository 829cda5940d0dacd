/**
 * @file
 * The message format exchanged between NDP cores and Synchronization
 * Engines (paper Fig. 5), and the wire-size constants of the modeled
 * hardware datapath.
 */

#ifndef SYNCRON_SYNC_MESSAGE_HH
#define SYNCRON_SYNC_MESSAGE_HH

#include <cstdint>
#include <span>

#include "common/types.hh"
#include "sync/opcodes.hh"
#include "sync/request.hh"

namespace syncron::sync {

/**
 * Size of the in-memory syncronVar record (Fig. 9):
 * uint16_t Waitlist[4] + uint64_t VarInfo + uint8_t OverflowInfo,
 * padded to 16 bytes.
 */
constexpr std::uint32_t kSyncronVarBytes = 16;

/** Request-message size: 64 addr + 6 opcode + 6 core id + 64 info bits. */
constexpr std::uint32_t kSyncReqBits = 140;

/** Response-message size (Fig. 6 datapath: 149 bits). */
constexpr std::uint32_t kSyncRespBits = 149;

static_assert(kSyncReqBits == 64 + 6 + 6 + 64,
              "message encoding must match paper Fig. 5");

/**
 * Shared header of a coalesced batch message: batch opcode (6) + core
 * id (6) + operation count (8). Batches carry several same-destination
 * operations issued by one core in a single network message, paying
 * the header once instead of once per op.
 */
constexpr std::uint32_t kSyncBatchHeaderBits = 6 + 6 + 8;

/**
 * Base size of a per-operation record inside a coalesced batch:
 * variable address (64) + opcode (6) + a 2-bit MessageInfo tag. The
 * fixed Fig. 5 layout always reserves 64 MessageInfo bits; the batch
 * encoding is tagged instead, appending info only for the kinds that
 * carry it — nothing for lock ops / sem_post / signal / broadcast, a
 * 32-bit count for barrier_wait (participants) and sem_wait (initial
 * resources), the full 64-bit lock address for cond_wait.
 */
constexpr std::uint32_t kSyncBatchRecordBits = 64 + 6 + 2;

/** Wire size of one tagged batch record for operation kind @p kind. */
constexpr std::uint32_t
batchRecordBits(OpKind kind)
{
    switch (kind) {
      case OpKind::BarrierWaitWithinUnit:
      case OpKind::BarrierWaitAcrossUnits:
      case OpKind::SemWait:
        return kSyncBatchRecordBits + 32;
      case OpKind::CondWait:
        return kSyncBatchRecordBits + 64;
      default:
        return kSyncBatchRecordBits;
    }
}

// Coalescing pays from two operations up even for the widest batchable
// records (cond_wait never batches — SyncBatch has no wait(cond) — so
// the 32-bit info records are the worst case); a 1-op batch must go
// out as a plain Fig. 5 message (backends enforce this eligibility).
static_assert(kSyncBatchHeaderBits + 2 * (kSyncBatchRecordBits + 32)
                  < 2 * kSyncReqBits,
              "coalescing two ops must beat two plain messages");

/** Total wire size of a coalesced message carrying @p reqs. */
inline std::uint32_t
batchReqBits(std::span<const SyncRequest> reqs)
{
    std::uint32_t bits = kSyncBatchHeaderBits;
    for (const SyncRequest &req : reqs)
        bits += batchRecordBits(req.kind());
    return bits;
}

/**
 * A synchronization message (Fig. 5). Used between cores and SEs and,
 * with global/overflow opcodes, between SEs.
 */
struct SyncMessage
{
    Addr addr = 0;          ///< synchronization variable address
    Op opcode{};            ///< message opcode (Table 3)
    std::uint32_t coreId = 0; ///< local core id, or global SE id
    std::uint64_t info = 0;   ///< MessageInfo (Fig. 5)

    // -- Typed MessageInfo views (meaning fixed by the opcode) ----------
    /** Lock address associated with a cond_wait-family message. */
    Addr condLockAddr() const { return static_cast<Addr>(info); }

    /** Barrier participant total carried by barrier-wait messages. */
    std::uint64_t barrierTotal() const { return info; }

    /** Semaphore initial-resource count carried by sem_wait messages. */
    std::uint64_t semResources() const { return info; }
};
// Captured by value in the SE's event callbacks: no sidecar fields.
static_assert(sizeof(SyncMessage) == 24);

} // namespace syncron::sync

#endif // SYNCRON_SYNC_MESSAGE_HH
