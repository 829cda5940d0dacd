/**
 * @file
 * The Central baseline (paper Section 5): one dedicated NDP core in the
 * entire system acts as a synchronization server, extending the
 * message-passing barrier of Tesseract to all primitives. Every client
 * core sends its requests to that single server — crossing the expensive
 * inter-unit links for three quarters of the system — and the server
 * processes each message in software, accessing the synchronization
 * variable through its own memory hierarchy (private L1, then DRAM,
 * possibly in a remote unit).
 */

#ifndef SYNCRON_BASELINES_CENTRAL_HH
#define SYNCRON_BASELINES_CENTRAL_HH

#include <deque>
#include <memory>

#include "cache/cache.hh"
#include "sync/backend.hh"
#include "sync/flat_state.hh"
#include "system/machine.hh"

namespace syncron::baselines {

/** One software synchronization server for the whole NDP system. */
class CentralBackend : public sync::SyncBackend
{
  public:
    /**
     * @param machine    the platform
     * @param serverUnit unit housing the server core (default 0)
     */
    explicit CentralBackend(Machine &machine, UnitId serverUnit = 0);

    void request(core::Core &requester, const sync::SyncRequest &req,
                 sim::Gate *gate) override;

    /**
     * Batch issue with message coalescing: every operation in the
     * system targets the single server, so an eligible batch (>= 2 ops)
     * always shares its destination and travels as one request message
     * of batchReqBits(n) bits. The server still processes the members
     * one by one in batch order (per-op software overhead + variable
     * RMW), and each grant travels as its own response.
     */
    void requestBatch(core::Core &requester,
                      std::span<const sync::SyncRequest> reqs,
                      std::span<sim::Gate *const> gates) override;

    bool idleVar(Addr var) const override;

    void releaseVar(Addr var) override { state_.destroy(var); }

    const char *name() const override { return "Central"; }

  private:
    /** One request waiting for (or in) software service at the server. */
    struct Job
    {
        sync::SyncRequest req;
        CoreId core = 0;
        sim::Gate *gate = nullptr; ///< nullptr for release-type members
        Tick arrival = 0;
    };

    /** Enqueues an arrived request at the server (server shard only). */
    void enqueue(const sync::SyncRequest &req, CoreId core,
                 sim::Gate *gate);
    /** Begins servicing the queue head; may suspend on a miss fill. */
    void serveNext();
    /** Resumes the in-service job once its L1 miss fill arrives. */
    void onFillDone();
    /** Schedules job completion at @p done . */
    void finishJob(Tick done);
    /** Applies the head job, sends its grants, serves the next one. */
    void completeFront();

    Machine &machine_;
    cache::Cache l1_;
    sync::FlatSyncState state_;
    UnitId serverUnit_;
    Tick busyUntil_ = 0;
    /// Arrival-ordered software service queue. The whole service path
    /// (queue, L1, state_) runs on the server's shard; only pending_ is
    /// shared with requester shards.
    std::deque<Job> queue_;
    bool serving_ = false;
    /// Requests issued but not yet applied at the server.
    sync::PendingOps pending_;
};

} // namespace syncron::baselines

#endif // SYNCRON_BASELINES_CENTRAL_HH
