/**
 * @file
 * Capture of a live run's synchronization-operation stream.
 *
 * TraceCapture is the sync::OpObserver that NdpSystem registers on its
 * SyncApi when SystemConfig::tracePath is set (benches reach it through
 * --trace-out). Every completed operation is appended as a TraceRecord;
 * the primitive table is learned on the fly from the typed requests
 * themselves — the first operation on an address mints its table entry
 * (kind from the OpKind, home from the address, barrier headcount and
 * semaphore resources from the request payload), so any existing bench,
 * example, or test emits a replayable trace without code changes.
 *
 * Record order is the order the completion hooks fire, not completion
 * order: a resolved SyncFuture dropped without being awaited records its
 * earlier ready tick, and same-tick completions of different cores
 * follow event order. The contract is per-core program order inside one
 * global fire order — an in-order core's next sync op issues only after
 * the previous one completed, and detached releases are recorded at
 * issue. The Replayer and analyzeTrace rely on exactly that.
 */

#ifndef SYNCRON_TRACE_CAPTURE_HH
#define SYNCRON_TRACE_CAPTURE_HH

#include <cstdint>

#include "common/addr_map.hh"
#include "sync/observer.hh"
#include "system/config.hh"
#include "trace/format.hh"

namespace syncron::trace {

/** Accumulates a Trace from the api's operation stream. */
class TraceCapture final : public sync::OpObserver
{
  public:
    /** Captures runs of a system built from @p cfg (must outlive us). */
    explicit TraceCapture(const SystemConfig &cfg);

    void onComplete(CoreId core, const sync::SyncRequest &req,
                    Tick issued, Tick completed) override;

    /**
     * Closes the line's logical primitive: a recycled line (same
     * address, new create*) must open a fresh table entry, never merge
     * two generations whose parameters — or leftover semaphore
     * balance — could differ.
     */
    void onDestroy(Addr var) override { addrToPrim_.erase(var); }

    /** The trace accumulated so far. */
    const Trace &trace() const { return trace_; }

  private:
    /** Table id for @p addr, minting an entry on first sight. */
    std::uint32_t primId(Addr addr, PrimKind kind);

    Trace trace_;
    common::AddrMap<std::uint32_t> addrToPrim_;
    const SystemConfig &cfg_;
};

} // namespace syncron::trace

#endif // SYNCRON_TRACE_CAPTURE_HH
