/**
 * @file
 * Shared pieces of the repo benchmark: in-memory span tracing with
 * self-time accounting, nearest-rank percentiles, the benchmark-owned
 * op observers, and the per-cell / per-iteration result records the
 * four workloads fill.
 *
 * Everything here drives the simulator from outside, through its public
 * headers; nothing under src/ is modified.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sync/observer.hh"
#include "sync/opcodes.hh"
#include "system/config.hh"
#include "system/energy.hh"

namespace perfbench {

using syncron::Tick;

/** Host monotonic clock, nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Host CPU time of the whole process, nanoseconds. Unlike wall time it
 * leaves out time the hypervisor gave to other guests (steal), which on
 * a shared host stretched single iterations by up to 1.9x.
 */
std::uint64_t cpuNs();

/** Wall and process-CPU time of one stretch of host work. */
struct HostTime
{
    std::uint64_t wallNs = 0;
    std::uint64_t cpuNs = 0;

    HostTime &
    operator+=(const HostTime &o)
    {
        wallNs += o.wallNs;
        cpuNs += o.cpuNs;
        return *this;
    }
};

/** Measures consecutive stretches of host work. */
class Stopwatch
{
  public:
    Stopwatch() : wall_(nowNs()), cpu_(cpuNs()) {}

    /** Host time since construction or the previous lap(). */
    HostTime
    lap()
    {
        const std::uint64_t wall = nowNs();
        const std::uint64_t cpu = cpuNs();
        const HostTime t{wall - wall_, cpu - cpu_};
        wall_ = wall;
        cpu_ = cpu;
        return t;
    }

  private:
    std::uint64_t wall_;
    std::uint64_t cpu_;
};

// -- Host-speed calibration --------------------------------------------

/**
 * Runs a fixed, simulator-independent piece of host work — a pointer
 * chase over a 64 KiB random cycle, hash-map churn, and a bounded
 * binary heap, access patterns an event-driven simulator is made of —
 * and returns its host time. The benchmark runs it before every timed
 * iteration. The same code always does the same work, so its CPU time
 * measures how fast the host is just then; dividing by it cancels the
 * host-speed drift that CPU time alone still shows on a shared host
 * (cache contention and frequency changes caused by other guests).
 */
HostTime calibrate();

/**
 * CPU seconds calibrate() takes on the reference host (4-vCPU shared
 * guest, g++ 12.2, Release) when it is calm. A host time "in reference
 * seconds" is the measured CPU time times this constant over
 * calibrate()'s CPU time in the same run: what the run would have
 * measured on the reference host at that speed.
 */
constexpr double kCalibRefCpuS = 0.03;

// -- Spans -------------------------------------------------------------

/** One timed region of the benchmark's own code. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int cell = -1;   ///< simulation the span belongs to, -1 for none
};

/**
 * Records spans in memory. A disabled tracer records nothing, so the
 * untraced run pays one branch per boundary.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Opens a child of the innermost open span; returns its index. */
    int open(const std::string &name, int cell);

    /** Closes the innermost open span, which must be @p idx. */
    void close(int idx);

    /**
     * Adds an already-measured child of @p parent covering
     * [startNs, startNs + durNs) — how time summed inside callbacks
     * (observer forwarders) enters the tree without one span per call.
     */
    void addClosed(const std::string &name, int parent,
                   std::uint64_t startNs, std::uint64_t durNs, int cell);

    const std::vector<Span> &spans() const { return spans_; }

    /** Hands the recorded spans over and starts empty. */
    std::vector<Span> take();

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span on a tracer; a no-op when the tracer is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name, int cell)
        : tracer_(tracer), idx_(tracer.enabled() ? tracer.open(name, cell)
                                                 : -1)
    {}
    ~ScopedSpan()
    {
        if (idx_ >= 0)
            tracer_.close(idx_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return idx_; }

  private:
    Tracer &tracer_;
    int idx_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children's intervals (children clipped to
 * the parent, overlapping children counted once).
 */
std::vector<std::uint64_t> selfTimes(const std::vector<Span> &spans);

/** selfTimes() summed per span name. */
std::map<std::string, std::uint64_t>
selfTimeByName(const std::vector<Span> &spans);

// -- Order statistics --------------------------------------------------

/** 1-based nearest rank of quantile @p q over @p n samples: ceil(q*n). */
std::size_t nearestRankIndex(std::size_t n, double q);

/** Nearest-rank quantile of ascending @p sorted values (0 when empty). */
Tick nearestRank(const std::vector<Tick> &sorted, double q);

/** Samples strictly above the nearest-rank @p q quantile. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n - nearestRankIndex(n, q);
}

/** Median of @p v (by value: sorts a copy); 0 when empty. */
double median(std::vector<double> v);

/**
 * Mean of the best quarter of @p v (at least one value); 0 when empty.
 * The estimator of the end-to-end host metrics: interference from other
 * work on the host only ever slows an iteration down, so the best
 * iterations show the program's own cost.
 */
double bestQuarterMean(std::vector<double> v, bool higherIsBetter);

// -- Observers ---------------------------------------------------------

/**
 * Benchmark-owned op recorder: per-op latency of every lock acquire plus
 * per-OpKind counts and latency sums. One buffer per client core, so
 * sharded runs (whose cores complete ops on different host threads)
 * need no lock.
 */
class OpRecorder final : public syncron::sync::OpObserver
{
  public:
    explicit OpRecorder(const syncron::SystemConfig &cfg);

    void onComplete(syncron::CoreId core,
                    const syncron::sync::SyncRequest &req, Tick issued,
                    Tick completed) override;

    /** Every acquire latency of the run, ascending. */
    std::vector<Tick> sortedAcquireLatencies() const;

    std::array<std::uint64_t, syncron::kNumSyncOpKinds> counts() const;
    std::array<std::uint64_t, syncron::kNumSyncOpKinds> ticks() const;

  private:
    struct alignas(64) Lane
    {
        std::vector<Tick> acquire;
        std::array<std::uint64_t, syncron::kNumSyncOpKinds> count{};
        std::array<std::uint64_t, syncron::kNumSyncOpKinds> ticks{};
    };

    unsigned coresPerUnit_;
    unsigned clientCoresPerUnit_;
    std::vector<Lane> lanes_; ///< one per client core, plus one spare
};

/**
 * Forwards every callback to @p down and sums the host time spent in
 * it — the traced run's view of observer/analyzer cost. Accumulators
 * are per core for the same reason as OpRecorder's lanes.
 */
class TimingForwarder final : public syncron::sync::OpObserver
{
  public:
    TimingForwarder(syncron::sync::OpObserver &down,
                    const syncron::SystemConfig &cfg);

    void onIssue(syncron::CoreId core,
                 const syncron::sync::SyncRequest &req,
                 Tick issued) override;
    void onComplete(syncron::CoreId core,
                    const syncron::sync::SyncRequest &req, Tick issued,
                    Tick completed) override;
    void onAccess(syncron::CoreId core, syncron::Addr addr, bool isWrite,
                  Tick tick) override;
    void onDestroy(syncron::Addr addr) override;

    std::uint64_t totalNs() const;
    std::uint64_t calls() const;

  private:
    struct alignas(64) Acc
    {
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    Acc &acc(syncron::CoreId core);

    syncron::sync::OpObserver &down_;
    unsigned coresPerUnit_;
    unsigned clientCoresPerUnit_;
    std::vector<Acc> accs_; ///< per client core; the last slot is shared
};

// -- Results -----------------------------------------------------------

/** Everything one simulation (a "cell") produced. */
struct Cell
{
    std::string name;
    int id = -1;
    /// False for helper runs (the max-rate probes, the 1-shard
    /// reference) that must not enter the workload's simulated metrics.
    bool inMetrics = true;

    // -- Simulated results (deterministic per seed)
    Tick simTicks = 0;
    std::uint64_t ops = 0;       ///< workload operations completed
    std::uint64_t attempted = 0; ///< workload operations attempted
    std::uint64_t failed = 0;
    syncron::SystemStats stats;
    syncron::EnergyBreakdown energy;
    std::uint64_t events = 0;
    std::uint64_t overflowedReqs = 0; ///< SynCron engine, via memory
    std::uint64_t totalReqs = 0;      ///< SynCron engine, all requests
    unsigned shards = 1;
    Tick lookahead = 0;
    std::vector<Tick> acquireLat; ///< ascending
    std::array<std::uint64_t, syncron::kNumSyncOpKinds> kindCount{};
    std::array<std::uint64_t, syncron::kNumSyncOpKinds> kindTicks{};

    // -- Open-loop accounting
    double ratePerUs = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t late = 0;
    std::uint64_t lateTicks = 0;
    std::uint64_t dropped = 0;

    // -- Host cost
    HostTime setup; ///< system build + workload install
    HostTime run;   ///< inside NdpSystem::run()
    std::uint64_t observerNs = 0;                    ///< traced only
    std::uint64_t analysisNs = 0, analysisCalls = 0; ///< traced only

    std::vector<std::string> errors; ///< failed correctness checks
};

/** One pass over every cell of a workload. */
struct Iteration
{
    std::vector<Cell> cells;
    /// Host set-up outside the cells (schedule expansion, trace
    /// generation/encode/decode); setupTotal() adds the cells' own.
    HostTime extraSetup;
    /// calibrate() run right before this iteration (timed runs only).
    HostTime calib;
    /// Deterministic per-workload values (max sustainable rate, trace
    /// bytes per record, analyzer findings).
    std::map<std::string, double> sim;
    /// Host-timed per-workload values (encode/decode ns per record).
    std::map<std::string, double> host;
    std::vector<std::string> errors;
    std::vector<Span> spans; ///< traced iterations only

    HostTime setupTotal() const;
    HostTime runTotal() const;
    std::uint64_t syncOps() const;
};

/** Inputs every workload iteration receives. */
struct RunCtx
{
    std::uint64_t seed = 1;
    double scale = 1.0;  ///< input-size multiplier (smoke tests shrink it)
    std::string scratch; ///< directory for trace files
    Tracer *tracer = nullptr;
    bool reference = false; ///< also run helper/reference cells
    int iteration = 0;      ///< distinguishes an iteration's scratch files
    int nextCellId = 0;
};

/** A workload: name plus one-iteration body. */
struct Workload
{
    const char *name;
    Iteration (*run)(RunCtx &ctx);
};

/** The four workloads, in BENCHMARK.json order. */
const std::vector<Workload> &allWorkloads();

/** Bit-exact fingerprint of a cell's simulated outputs. */
std::vector<double> simFingerprint(const Cell &cell);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
