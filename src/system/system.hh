/**
 * @file
 * NdpSystem: one fully assembled simulated NDP system — the hardware
 * platform (Machine), the synchronization backend selected by the
 * configuration's Scheme, the client NDP cores, and the run loop that
 * drives workload coroutines to completion.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   SystemConfig cfg = SystemConfig::make(Scheme::SynCron);
 *   NdpSystem sys(cfg);
 *   for (unsigned i = 0; i < sys.numClientCores(); ++i)
 *       sys.spawn(myKernel(sys.clientCore(i), sys.api()));
 *   sys.run();
 *   // sys.elapsed(), sys.stats(), computeEnergy(...)
 */

#ifndef SYNCRON_SYSTEM_SYSTEM_HH
#define SYNCRON_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/core.hh"
#include "sync/api.hh"
#include "sync/backend.hh"
#include "syncron/engine.hh"
#include "system/config.hh"
#include "system/machine.hh"

namespace syncron::trace {
class TraceCapture;
} // namespace syncron::trace

namespace syncron::analysis {
class LiveAnalyzer;
} // namespace syncron::analysis

namespace syncron::durability {
class DurabilityManager;
} // namespace syncron::durability

namespace syncron {

/** A complete simulated NDP system instance. */
class NdpSystem
{
  public:
    explicit NdpSystem(const SystemConfig &cfg);
    ~NdpSystem();

    NdpSystem(const NdpSystem &) = delete;
    NdpSystem &operator=(const NdpSystem &) = delete;

    Machine &machine() { return *machine_; }
    sync::SyncApi &api() { return *api_; }
    sync::SyncBackend &backend() { return *backend_; }

    /**
     * The SynCron engine, when the configured scheme is SE- or
     * server-based (SynCron, Hier, overflow variants); nullptr for
     * Ideal/Central/flat.
     */
    engine::SynCronBackend *syncronBackend() { return engineView_; }

    /** Number of client cores executing the workload. */
    unsigned numClientCores() const;

    /** The @p idx -th client core; cores are distributed round-robin by
     *  unit (core 0 -> unit 0, core 1 -> unit 0, ..., 15 -> unit 1...). */
    core::Core &clientCore(unsigned idx);

    /**
     * Registers and starts a workload coroutine on shard 0's queue.
     * Only valid on single-shard machines (a coroutine's code segments
     * run on the queue that resumed them, so on a sharded machine every
     * process must be homed on its core's shard — use the overload).
     */
    void spawn(sim::Process process);

    /**
     * Registers and starts a workload coroutine on @p core 's shard, so
     * every segment of the coroutine executes on the queue that owns
     * the core's unit. The workload must drive only @p core (the usual
     * one-coroutine-per-core shape).
     */
    void spawn(sim::Process process, const core::Core &core);

    /**
     * Runs the simulation until every spawned process completes, driving
     * the per-shard event queues through the conservative-PDES windowed
     * loop (sim::ShardedKernel; on a single-shard machine the queue
     * opens the same windows itself, with no barrier).
     * fatal()s on deadlock (event queues empty, processes pending).
     * With SystemConfig::tracePath set, writes the captured
     * synchronization-operation trace there on completion.
     *
     * With SystemConfig::crashAtTick set, the run may instead stop at
     * the injected crash: the machine is marked crashed, processes stay
     * blocked mid-operation, and run() returns early — the normal
     * end-of-run bookkeeping (deadlock check, trace writeout, analysis)
     * is skipped. crashed() reports which way the run ended; the
     * durability manager's persisted image survives for recovery.
     */
    void run();

    /** True when the last run() ended at the injected crash. */
    bool crashed() const { return machine_->crashed(); }

    /**
     * The synchronization-operation capture installed when
     * SystemConfig::tracePath is set; nullptr when not tracing.
     */
    trace::TraceCapture *traceCapture() { return capture_.get(); }

    /**
     * The live sync-correctness analyzer installed when
     * SystemConfig::analyze is set; nullptr when not analyzing. run()
     * finishes it and (with analyzeFatal) fatal()s on findings; tests
     * seeding defects clear analyzeFatal and read analyzer()->report()
     * afterwards.
     */
    analysis::LiveAnalyzer *analyzer() { return analyzer_.get(); }

    /**
     * The durability manager installed when SystemConfig::persistMode
     * is not Off; nullptr otherwise. Holds the write-ahead log and the
     * snapshot()/walTrace() surface the crash-recovery flow consumes.
     */
    durability::DurabilityManager *durability()
    {
        return durability_.get();
    }

    /** Simulated time elapsed so far (max across shard queues). */
    Tick elapsed() const;

    /** Lookahead windows the sharded kernel executed over every run()
     *  so far (host perf accounting). */
    std::uint64_t kernelWindows() const { return kernelWindows_; }

    const SystemStats &stats() const { return machine_->stats(); }
    const SystemConfig &config() const { return machine_->config(); }

  private:
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<sync::SyncBackend> backend_;
    engine::SynCronBackend *engineView_ = nullptr;
    std::unique_ptr<sync::SyncApi> api_;
    std::unique_ptr<trace::TraceCapture> capture_;
    std::unique_ptr<analysis::LiveAnalyzer> analyzer_;
    std::unique_ptr<durability::DurabilityManager> durability_;
    std::vector<std::unique_ptr<core::Core>> cores_; ///< client cores
    std::uint64_t kernelWindows_ = 0;
    /// Declared last: coroutine frames are destroyed before the api and
    /// backend they reference (crash teardown unwinds guards mid-op).
    std::vector<sim::Process> processes_;
};

} // namespace syncron

#endif // SYNCRON_SYSTEM_SYSTEM_HH
