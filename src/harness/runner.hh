/**
 * @file
 * Experiment runner shared by every bench binary: builds a system for a
 * scheme, runs a workload (data structure / graph app / time series /
 * primitive microbenchmark), and returns simulated time plus the event
 * statistics needed for the paper's derived metrics (energy, data
 * movement, ST occupancy, overflow rate).
 */

#ifndef SYNCRON_HARNESS_RUNNER_HH
#define SYNCRON_HARNESS_RUNNER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "durability/pm_model.hh"
#include "load/arrival.hh"
#include "system/config.hh"
#include "system/energy.hh"
#include "trace/format.hh"
#include "workloads/graph/kernels.hh"
#include "workloads/micro/primitives.hh"
#include "workloads/replication/replication.hh"
#include "workloads/timeseries/scrimp.hh"

namespace syncron::harness {

/** Command-line options common to all bench binaries. */
struct BenchOptions
{
    double scale = 1.0;   ///< --scale=<f>: input size multiplier
    unsigned jobs = 1;    ///< --jobs=<n>: parallel grid workers
    std::string json;     ///< --json=<path>: machine-readable record
    std::string backend;  ///< --backend=<name>: registry override
    /// --trace-out=<path>: capture the sync-op stream to a trace file.
    /// Requires --jobs=1 (parallel grid cells would race on the file).
    std::string traceOut;
    /// --trace-in=<path>: replay an existing trace file (trace benches).
    /// Requires --jobs=1 for symmetry with capture.
    std::string traceIn;
    /// --trace-corpus=<dir>: mmap-replay every *.trc in a directory
    /// back-to-back (trace benches; see trace::Corpus). Exclusive with
    /// --trace-in.
    std::string traceCorpus;
    /// --analyze: run the sync-correctness analyses on every cell
    /// (fatal on findings). Works with --jobs>1: each grid cell's
    /// system owns an independent analysis::LiveAnalyzer.
    bool analyze = false;
    /// --persist=off|eager|epoch[:N]: SE-state durability mode every
    /// grid cell inherits (N = epoch batch size, default 64).
    durability::PersistMode persist = durability::PersistMode::Off;
    unsigned persistEpochOps = 64;
    /// --crash-at=<tick>: inject a crash at the given tick (0 = never).
    /// Requires --jobs=1: a crashed cell tears its machine down, which
    /// only makes sense for a single deterministic run.
    Tick crashAt = 0;
    /// --crash-sweep=<n>: durability benches only — instead of the
    /// performance grid, run the crash-injection sweep at every nth
    /// sync-op boundary (0 = disabled).
    unsigned crashSweepEvery = 0;
    /// --sim-shards=<n>: event-queue shards each simulated machine is
    /// split into, stepped in conservative windows on one thread.
    /// Results are bit-identical to a single-queue run. Incompatible
    /// with --trace-out, --crash-at, and --persist, which all assume
    /// one global event order.
    unsigned simShards = 1;
    /// --load=<spec>: open-loop arrival-process override for benches
    /// that sweep offered load (see load::LoadSpec::fromString).
    load::LoadSpec loadSpec;
    bool hasLoad = false; ///< --load was given
    /// --slo-p99=<ns>: p99 latency SLO for the max-sustainable-rate
    /// search (0 = bench default).
    double sloP99Ns = 0.0;

    /** Maximum accepted --jobs value. */
    static constexpr unsigned kMaxJobs = 256;

    /** Maximum accepted --sim-shards value. */
    static constexpr unsigned kMaxShards = 64;

    /** Maximum accepted --scale value (paper scale is 8.0). */
    static constexpr double kMaxScale = 1e6;

    /** Parses argv; bad/unknown arguments are fatal and print usage.
     *  --help/-h prints the usage to stdout and exits 0. */
    static BenchOptions parse(int argc, char **argv);

    /** The usage text printed on argument errors. */
    static const char *usage();

    /**
     * SystemConfig::make plus the CLI-wide settings (--backend,
     * --trace-out) every grid cell must inherit; benches build their
     * configs through this.
     */
    SystemConfig makeConfig(Scheme scheme, unsigned numUnits = 4,
                            unsigned clientCoresPerUnit = 15) const;
};

/** The nine Table 6 data structures. */
enum class DsKind
{
    Stack,
    Queue,
    ArrayMap,
    PriorityQueue,
    SkipList,
    HashTable,
    LinkedList,
    BstFg,
    BstDrachsler,
};

/** Printable name matching the paper ("Stack", "BST_FG", ...). */
const char *dsName(DsKind kind);

/** All nine, in Fig. 11 order. */
inline constexpr DsKind kAllDsKinds[] = {
    DsKind::Stack,      DsKind::Queue,     DsKind::ArrayMap,
    DsKind::PriorityQueue, DsKind::SkipList, DsKind::HashTable,
    DsKind::LinkedList, DsKind::BstFg,     DsKind::BstDrachsler,
};

/** Default initial size / per-core operations for a structure. */
struct DsParams
{
    unsigned initialSize;
    unsigned opsPerCore;
};

/** Table 6 defaults scaled for simulation (--scale=8 approaches the
 *  paper's sizes). */
DsParams dsDefaults(DsKind kind, double scale);

/** Everything a bench needs from one run. */
struct RunOutput
{
    Tick time = 0;
    std::uint64_t ops = 0; ///< ds operations / graph+ts locked updates
    SystemStats stats;
    EnergyBreakdown energy;
    double stMaxFrac = 0.0; ///< max ST occupancy fraction
    double stAvgFrac = 0.0; ///< avg ST occupancy fraction
    std::uint64_t overflowedReqs = 0;
    std::uint64_t totalReqs = 0;

    // -- Open-loop load accounting (runOpenLoop only)
    std::uint64_t offeredOps = 0; ///< scheduled arrivals
    std::uint64_t issuedOps = 0;  ///< arrivals that became sync ops
    std::uint64_t droppedOps = 0; ///< shed arrivals (Drop policy)
    std::uint64_t queuedOps = 0;  ///< arrivals issued late (Queue)
    std::uint64_t queueDelayTicks = 0; ///< total lateness of the queued
    double offeredRatePerUs = 0.0; ///< the spec's per-core offered rate

    // -- Host-side perf accounting (the simulator's own speed)
    std::uint64_t hostEvents = 0; ///< kernel events executed by the run
    std::uint64_t hostWindows = 0;    ///< sharded-kernel lookahead windows
    std::uint64_t hostHeapEvents = 0; ///< events run from the heap
    std::uint64_t hostNs = 0;     ///< host wall-clock of the run

    /** Fig. 11 metric. */
    double opsPerMs() const;
    /** Fraction of requests serviced via memory (Fig. 22/23). */
    double overflowFrac() const;
    /** Host simulation speed (events per host second). */
    double hostEventsPerSec() const;
};

/** Runs one data-structure benchmark. */
RunOutput runDataStructure(const SystemConfig &cfg, DsKind kind,
                           unsigned initialSize, unsigned opsPerCore);

/** Runs one Fig. 10 primitive microbenchmark. */
RunOutput runPrimitive(const SystemConfig &cfg,
                       workloads::Primitive primitive, unsigned interval,
                       unsigned opsPerCore);

/** Runs the batched semaphore fan-out microbenchmark
 *  (workloads::SemFanoutWorkload). */
RunOutput runSemFanout(const SystemConfig &cfg, unsigned width,
                       unsigned rounds, bool contended);

/** Runs the replication (per-partition ordered apply) workload. */
RunOutput runReplication(const SystemConfig &cfg,
                         const workloads::ReplicationParams &params);

/** The 26 real application-input combinations of Fig. 12. */
struct AppInput
{
    std::string app;   ///< "bfs".."tc" or "ts"
    std::string input; ///< "wk"/"sl"/"sx"/"co" or "air"/"pow"
};
std::vector<AppInput> allAppInputs();

/**
 * Proxy inputs generated once per bench and shared read-only by every
 * grid cell. Benches prepare() the inputs they sweep — and
 * preparePartitions() the graph partitions their cells place with —
 * before queuing their grid cells; the cells then receive const
 * references instead of regenerating the same CSR/series/partition per
 * cell. Preparation is not thread-safe (call it from the main thread,
 * before Bench::run()); the lookups are const and safe from any number of
 * grid workers.
 */
class SharedInputs
{
  public:
    /** Generates the graph/series of every combination, once each. */
    void prepare(const std::vector<AppInput> &combos, double scale);

    /** Generates (if absent) the named proxy graph. */
    void prepareGraph(const std::string &input, double scale);

    /** Generates (if absent) the named proxy series. */
    void prepareSeries(const std::string &input, double scale);

    /**
     * Computes (if absent) the partition of a prepared graph over
     * @p numUnits units — rangePartition, or greedyPartition when
     * @p metis. The graph must be prepared first.
     */
    void preparePartition(const std::string &input, unsigned numUnits,
                          bool metis = false);

    /** preparePartition() for every graph combination (ts skipped). */
    void preparePartitions(const std::vector<AppInput> &combos,
                           unsigned numUnits, bool metis = false);

    /** Prepared graph; fatal when prepare was never called for it. */
    const workloads::Graph &graph(const std::string &input) const;

    /** Prepared series; fatal when prepare was never called for it. */
    const workloads::ProxySeries &series(const std::string &input) const;

    /** Prepared partition; fatal when preparePartition was never
     *  called for the (input, numUnits, metis) combination. */
    const std::vector<UnitId> &partition(const std::string &input,
                                         unsigned numUnits,
                                         bool metis = false) const;

  private:
    static std::string partitionKey(const std::string &input,
                                    unsigned numUnits, bool metis);

    std::map<std::string, workloads::Graph> graphs_;
    std::map<std::string, workloads::ProxySeries> series_;
    std::map<std::string, std::vector<UnitId>> partitions_;
};

/** Runs one graph application on a shared input with a pre-computed
 *  (shared) partition — the zero-recompute grid-cell path. */
RunOutput runGraph(const SystemConfig &cfg, const workloads::Graph &g,
                   workloads::GraphApp app,
                   const std::vector<UnitId> &partition);

/** Runs SCRIMP on a pre-generated (shared) series. */
RunOutput runTimeSeries(const SystemConfig &cfg,
                        const workloads::ProxySeries &input);

/**
 * Runs one Fig. 12 combination on prepared shared inputs. Graph
 * combinations use the shared partition for (input, cfg.numUnits,
 * metisPartition) — fatal when preparePartition was never called for
 * it, so grid cells can never silently fall back to recomputing.
 */
RunOutput runAppInput(const SystemConfig &cfg, const AppInput &ai,
                      const SharedInputs &inputs,
                      bool metisPartition = false);

/**
 * Replays a synchronization-operation trace (captured or synthesized)
 * through @p cfg's backend. The config's machine shape must match the
 * trace header (see trace::replayConfig()).
 */
RunOutput runTrace(const SystemConfig &cfg, const trace::Trace &t);

/**
 * Runs one open-loop load point: @p sched (prebuilt, so grid cells
 * sweeping backends at the same rate share one expansion) issued
 * through @p cfg's backend under @p spec's window/policy. The schedule
 * must cover exactly cfg's client cores.
 */
RunOutput runOpenLoop(const SystemConfig &cfg,
                      const load::LoadSpec &spec,
                      const load::ArrivalSchedule &sched);

/** Convenience: expands the spec for cfg's core count, then runs. */
RunOutput runOpenLoop(const SystemConfig &cfg,
                      const load::LoadSpec &spec);

} // namespace syncron::harness

#endif // SYNCRON_HARNESS_RUNNER_HH
