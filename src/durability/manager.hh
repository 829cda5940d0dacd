/**
 * @file
 * DurabilityManager: the write-ahead log for SE state.
 *
 * Installed by NdpSystem when SystemConfig::persistMode != Off as a
 * sync::OpObserver (registered on SyncApi): it appends every completed
 * operation to the WAL — an internal trace::TraceCapture, so the
 * persisted log is by construction the same logical stream the trace
 * subsystem captures and the recovery engine replays. Eager mode makes
 * each record durable as it lands (one PM write per record); Epoch mode
 * stages records and flushes every epochOps completions (one batched PM
 * write), so a crash loses the staged tail.
 *
 * The PM writes of the SE-state images themselves (ST entry
 * allocate/release, indexing-counter updates, overflowed in-memory
 * records) are charged by the SynCron engine in Eager mode; PM write
 * latency is charged on the request path by
 * durability::PersistingBackend (Eager mode only); energy is derived
 * from the pmBitsWritten counter by system/energy.
 *
 * snapshot() freezes the durable image — after a crash (noteCrash())
 * it is exactly what a post-crash recovery can see.
 */

#ifndef SYNCRON_DURABILITY_MANAGER_HH
#define SYNCRON_DURABILITY_MANAGER_HH

#include <cstdint>

#include "durability/image.hh"
#include "durability/pm_model.hh"
#include "sync/observer.hh"
#include "trace/capture.hh"

namespace syncron {
class Machine;
} // namespace syncron

namespace syncron::durability {

/** The WAL of one system; see the file comment. */
class DurabilityManager final : public sync::OpObserver
{
  public:
    explicit DurabilityManager(Machine &machine);

    DurabilityManager(const DurabilityManager &) = delete;
    DurabilityManager &operator=(const DurabilityManager &) = delete;

    // -- sync::OpObserver ----------------------------------------------
    void onComplete(CoreId core, const sync::SyncRequest &req,
                    Tick issued, Tick completed) override;
    void onDestroy(Addr addr) override;

    // -- Lifecycle -----------------------------------------------------
    /** The machine tore down mid-run at @p tick. */
    void noteCrash(Tick tick) { crashTick_ = tick; }

    /** Clean end of run: flushes any staged epoch tail. */
    void shutdownFlush() { flushStaged(); }

    /** Freezes the durable image (the PM domain's contents). */
    PersistedImage snapshot() const;

    /** The full WAL as a replayable trace (durable + staged). */
    const trace::Trace &walTrace() const { return capture_.trace(); }

    std::uint64_t appended() const { return appended_; }
    std::uint64_t durable() const { return durable_; }
    PersistMode mode() const { return mode_; }

  private:
    void flushStaged();

    Machine &machine_;
    PersistMode mode_;
    std::uint32_t epochOps_;
    trace::TraceCapture capture_;
    std::uint64_t appended_ = 0;
    std::uint64_t durable_ = 0;
    std::uint64_t staged_ = 0;
    Tick crashTick_ = 0;
};

} // namespace syncron::durability

#endif // SYNCRON_DURABILITY_MANAGER_HH
