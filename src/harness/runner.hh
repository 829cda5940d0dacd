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

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.hh"
#include "durability/pm_model.hh"
#include "load/arrival.hh"
#include "system/config.hh"
#include "system/energy.hh"
#include "trace/format.hh"
#include "workloads/micro/primitives.hh"
#include "workloads/replication/replication.hh"

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
    /// --trace-in=<path>: replay a trace file, or every *.trc in a
    /// directory (trace benches; see trace::Corpus). Exclusive with
    /// --trace-out.
    std::string traceIn;
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

/** The four schemes most figures compare, in the paper's order. */
inline constexpr Scheme kPaperSchemes[] = {Scheme::Central, Scheme::Hier,
                                           Scheme::SynCron, Scheme::Ideal};

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

/** The eight combinations Figs. 13-15 plot: one per graph app, plus
 *  both time series. */
std::vector<AppInput> sampleAppInputs();

/**
 * One grid cell as a value: the full machine configuration and the
 * workload it runs. Two equal specs are the same simulation, so
 * Bench::run() simulates each distinct spec once per process and serves
 * repeats from a memo. Equality is defaulted field by field (here and in
 * SystemConfig and its parameter structs), so a field added anywhere is
 * compared without further code.
 */
struct CellSpec
{
    /** A Table 6 data structure (runDataStructure). */
    struct Ds
    {
        DsKind kind;
        unsigned initialSize;
        unsigned opsPerCore;
        bool operator==(const Ds &) const = default;
    };

    /** A Fig. 10 primitive microbenchmark (runPrimitive). */
    struct Primitive
    {
        workloads::Primitive primitive;
        unsigned interval;
        unsigned opsPerCore;
        bool operator==(const Primitive &) const = default;
    };

    /**
     * A Fig. 12 application on a proxy input generated at
     * @p inputScale; graph inputs are placed by rangePartition, or by
     * greedyPartition when @p metis, over cfg.numUnits units.
     */
    struct App
    {
        std::string app;   ///< "bfs".."tc" or "ts"
        std::string input; ///< "wk"/"sl"/"sx"/"co" or "air"/"pow"
        double inputScale;
        bool metis = false;
        bool operator==(const App &) const = default;
    };

    /** The batched semaphore fan-out (runSemFanout). */
    struct SemFanout
    {
        unsigned width;
        unsigned rounds;
        bool contended;
        bool operator==(const SemFanout &) const = default;
    };

    SystemConfig cfg;
    std::variant<Ds, Primitive, App, SemFanout> work;

    bool operator==(const CellSpec &) const = default;
};

/**
 * Simulates @p specs on @p jobs grid workers (runGrid) and returns
 * their outputs in order. Every proxy graph, series and partition the
 * specs name is generated once, before the grid starts, and read by all
 * the cells that use it. When a cell throws, @p failedIndex receives the
 * lowest failing index and that cell's exception is rethrown.
 */
std::vector<RunOutput> runCells(const std::vector<CellSpec> &specs,
                                unsigned jobs,
                                std::size_t *failedIndex = nullptr);

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
