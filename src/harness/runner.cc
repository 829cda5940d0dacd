#include "harness/runner.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/log.hh"
#include "harness/grid.hh"
#include "load/openloop.hh"
#include "sync/registry.hh"
#include "system/system.hh"
#include "trace/replay.hh"
#include "workloads/datastructures/structures.hh"
#include "workloads/graph/kernels.hh"
#include "workloads/timeseries/scrimp.hh"

namespace syncron::harness {

const char *
BenchOptions::usage()
{
    return "options:\n"
           "  -h, --help         print this usage and exit\n"
           "  --scale=<f>        input-size multiplier (f > 0)\n"
           "  --jobs=<n>         parallel grid workers (1..256)\n"
           "  --json=<path>      write a machine-readable BENCH_*.json\n"
           "  --backend=<name>   select a registered sync backend by "
           "name\n"
           "  --trace-out=<path> capture the sync-op stream to a trace "
           "file (needs --jobs=1)\n"
           "  --trace-in=<path>  replay a trace file, or every *.trc in "
           "a directory\n"
           "  --analyze          run the sync-correctness analyses on "
           "every cell (fatal on findings)\n"
           "  --persist=<m>      SE-state durability: off, eager, or "
           "epoch[:N] (batch size N)\n"
           "  --crash-at=<t>     inject a crash at tick t (needs "
           "--jobs=1)\n"
           "  --crash-sweep=<n>  durability benches: crash-inject at "
           "every nth sync-op boundary\n"
           "  --sim-shards=<n>   event-queue shards per simulated machine "
           "(bit-identical results; incompatible with --trace-out, "
           "--crash-at, --persist)\n"
           "  --load=<spec>      open-loop arrival process: "
           "<kind>[:k=v,...], kind = fixed|poisson|bursty|diurnal, "
           "keys rate, ops, window, locks, hold, policy, seed, burst, "
           "gapx, phases, amp\n"
           "  --slo-p99=<ns>     p99 latency SLO (ns) for the "
           "max-sustainable-rate search";
}

namespace {

/** Lower bound of the options that need a positive number. */
constexpr double kMinPositive = std::numeric_limits<double>::denorm_min();
constexpr unsigned kMaxUnsigned = std::numeric_limits<unsigned>::max();

/** Value of "--opt=value"-style @p arg, or nullptr if no match. */
const char *
optValue(const char *arg, const char *prefix)
{
    const std::size_t n = std::strlen(prefix);
    if (std::strncmp(arg, prefix, n) != 0)
        return nullptr;
    return arg + n;
}

/**
 * Parses all of @p val as a number in [@p lo, @p hi] into @p out
 * (decimal for integer types); false when it is empty, malformed, out
 * of range, or not finite. @p out is untouched on failure.
 */
template <typename T>
bool
parseBounded(const char *val, T lo, T hi, T &out)
{
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_floating_point_v<T>) {
        const double v = std::strtod(val, &end);
        if (*val == '\0' || *end != '\0' || errno != 0
            || !(v >= lo && v <= hi))
            return false;
        out = v;
    } else {
        const unsigned long long v = std::strtoull(val, &end, 10);
        if (*val == '\0' || *end != '\0' || errno != 0 || v < lo
            || v > hi)
            return false;
        out = static_cast<T>(v);
    }
    return true;
}

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *val = nullptr;
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            std::cout << usage() << '\n';
            std::exit(0);
        } else if ((val = optValue(arg, "--scale="))) {
            if (!parseBounded(val, kMinPositive, kMaxScale, opts.scale)) {
                SYNCRON_FATAL("bad --scale value '"
                              << val << "' (need a number in (0, "
                              << kMaxScale << "])\n"
                              << usage());
            }
        } else if ((val = optValue(arg, "--jobs="))) {
            if (!parseBounded(val, 1u, kMaxJobs, opts.jobs)) {
                SYNCRON_FATAL("bad --jobs value '"
                              << val << "' (need 1.." << kMaxJobs
                              << ")\n"
                              << usage());
            }
        } else if ((val = optValue(arg, "--json="))) {
            if (*val == '\0')
                SYNCRON_FATAL("--json needs a path\n" << usage());
            opts.json = val;
        } else if ((val = optValue(arg, "--backend="))) {
            if (*val == '\0'
                || !sync::BackendRegistry::instance().contains(val)) {
                SYNCRON_FATAL(
                    "unknown --backend '"
                    << val << "' (known: "
                    << sync::BackendRegistry::instance().knownNames()
                    << ")\n"
                    << usage());
            }
            opts.backend = val;
        } else if ((val = optValue(arg, "--trace-out="))) {
            if (*val == '\0')
                SYNCRON_FATAL("--trace-out needs a path\n" << usage());
            opts.traceOut = val;
        } else if ((val = optValue(arg, "--trace-in="))) {
            if (*val == '\0')
                SYNCRON_FATAL("--trace-in needs a path\n" << usage());
            opts.traceIn = val;
        } else if (std::strcmp(arg, "--analyze") == 0) {
            opts.analyze = true;
        } else if ((val = optValue(arg, "--persist="))) {
            std::string mode = val;
            const std::size_t colon = mode.find(':');
            if (colon != std::string::npos) {
                const std::string count = mode.substr(colon + 1);
                mode.resize(colon);
                if (!parseBounded(count.c_str(), 1u, kMaxUnsigned,
                                  opts.persistEpochOps)) {
                    SYNCRON_FATAL("bad --persist epoch count '"
                                  << count << "' (need >= 1)\n"
                                  << usage());
                }
            }
            if (!durability::persistModeFromName(mode, opts.persist)
                || (colon != std::string::npos
                    && opts.persist != durability::PersistMode::Epoch)) {
                SYNCRON_FATAL("bad --persist value '"
                              << val
                              << "' (need off, eager, or epoch[:N])\n"
                              << usage());
            }
        } else if ((val = optValue(arg, "--crash-at="))) {
            if (!parseBounded(val, Tick{1}, std::numeric_limits<Tick>::max(),
                              opts.crashAt)) {
                SYNCRON_FATAL("bad --crash-at value '"
                              << val << "' (need a tick >= 1)\n"
                              << usage());
            }
        } else if ((val = optValue(arg, "--crash-sweep="))) {
            if (!parseBounded(val, 1u, kMaxUnsigned,
                              opts.crashSweepEvery)) {
                SYNCRON_FATAL("bad --crash-sweep value '"
                              << val << "' (need >= 1)\n"
                              << usage());
            }
        } else if ((val = optValue(arg, "--sim-shards="))) {
            if (!parseBounded(val, 1u, kMaxShards, opts.simShards)) {
                SYNCRON_FATAL("bad --sim-shards value '"
                              << val << "' (need 1.." << kMaxShards
                              << ")\n"
                              << usage());
            }
        } else if ((val = optValue(arg, "--load="))) {
            std::string error;
            if (!load::LoadSpec::fromString(val, opts.loadSpec,
                                            error)) {
                SYNCRON_FATAL("bad --load spec '" << val << "': "
                                                  << error << "\n"
                                                  << usage());
            }
            opts.hasLoad = true;
        } else if ((val = optValue(arg, "--slo-p99="))) {
            if (!parseBounded(val, kMinPositive,
                              std::numeric_limits<double>::max(),
                              opts.sloP99Ns)) {
                SYNCRON_FATAL("bad --slo-p99 value '"
                              << val
                              << "' (need a positive latency in ns)\n"
                              << usage());
            }
        } else {
            SYNCRON_FATAL("unknown argument '" << arg << "'\n"
                                               << usage());
        }
    }
    // A trace bench either captures or replays a file; combining the
    // two would silently ignore --trace-out, so reject it.
    if (!opts.traceOut.empty() && !opts.traceIn.empty()) {
        SYNCRON_FATAL("--trace-out and --trace-in are mutually "
                      "exclusive (capture or replay, not both)\n"
                      << usage());
    }
    // Capture is single-job only: parallel grid cells all inherit the
    // same tracePath and would race writing the one file. (Replay cells
    // only read their trace, so --trace-in runs at any --jobs.)
    if (!opts.traceOut.empty() && opts.jobs > 1) {
        SYNCRON_FATAL("--trace-out requires --jobs=1 (parallel grid "
                      "cells would race on the trace file)\n"
                      << usage());
    }
    // Crash injection tears the (single) machine down mid-run; a
    // parallel grid would crash every cell at the same tick, which is
    // never what a deterministic fault-injection run means.
    if (opts.crashAt != 0 && opts.jobs > 1) {
        SYNCRON_FATAL("--crash-at requires --jobs=1 (crash injection "
                      "is a single deterministic run, not a grid)\n"
                      << usage());
    }
    // A sharded run replays the op stream to its observers merged by
    // (fire tick, core), which breaks same-tick cross-core ties by core
    // id where a 1-shard run breaks them by event order; a sharded trace
    // or durability log would not be byte-identical to the 1-shard one.
    // Crash injection stops one queue at an exact tick. All three need
    // the single-queue kernel.
    if (opts.simShards > 1 && !opts.traceOut.empty()) {
        SYNCRON_FATAL("--trace-out requires --sim-shards=1 (trace "
                      "capture records the 1-shard event order)\n"
                      << usage());
    }
    if (opts.simShards > 1 && opts.crashAt != 0) {
        SYNCRON_FATAL("--crash-at requires --sim-shards=1 (crash "
                      "injection stops the machine at an exact global "
                      "tick)\n"
                      << usage());
    }
    if (opts.simShards > 1
        && opts.persist != durability::PersistMode::Off) {
        SYNCRON_FATAL("--persist requires --sim-shards=1 (the "
                      "durability log records the 1-shard sync-op "
                      "order)\n"
                      << usage());
    }
    return opts;
}

SystemConfig
BenchOptions::makeConfig(Scheme scheme, unsigned numUnits,
                         unsigned clientCoresPerUnit) const
{
    SystemConfig cfg =
        SystemConfig::make(scheme, numUnits, clientCoresPerUnit);
    cfg.backendName = backend;
    cfg.tracePath = traceOut;
    cfg.analyze = analyze;
    cfg.persistMode = persist;
    cfg.persistEpochOps = persistEpochOps;
    cfg.crashAtTick = crashAt;
    cfg.simShards = simShards;
    return cfg;
}

const char *
dsName(DsKind kind)
{
    switch (kind) {
      case DsKind::Stack: return "Stack";
      case DsKind::Queue: return "Queue";
      case DsKind::ArrayMap: return "Array Map";
      case DsKind::PriorityQueue: return "Priority Queue";
      case DsKind::SkipList: return "Skip List";
      case DsKind::HashTable: return "Hash Table";
      case DsKind::LinkedList: return "Linked List";
      case DsKind::BstFg: return "BST_FG";
      case DsKind::BstDrachsler: return "BST_Drachsler";
    }
    return "?";
}

DsParams
dsDefaults(DsKind kind, double scale)
{
    // Table 6 sizes, scaled down for simulation speed at scale 1.0;
    // --scale=8 approaches the paper's configuration.
    auto s = [scale](unsigned base) {
        return std::max(8u, static_cast<unsigned>(base * scale));
    };
    switch (kind) {
      case DsKind::Stack: return {s(12500), s(24)};
      case DsKind::Queue: return {s(12500), s(24)};
      case DsKind::ArrayMap: return {10, s(24)};
      case DsKind::PriorityQueue: return {s(2500), s(24)};
      case DsKind::SkipList: return {s(640), s(16)};
      case DsKind::HashTable: return {s(128), s(24)};
      case DsKind::LinkedList: return {s(256), s(3)};
      case DsKind::BstFg: return {s(2500), s(10)};
      case DsKind::BstDrachsler: return {s(1250), s(10)};
    }
    SYNCRON_PANIC("unknown data structure");
}

double
RunOutput::opsPerMs() const
{
    if (time == 0)
        return 0.0;
    return static_cast<double>(ops)
           / (static_cast<double>(time) / 1e9);
}

double
RunOutput::overflowFrac() const
{
    if (totalReqs == 0)
        return 0.0;
    return static_cast<double>(overflowedReqs)
           / static_cast<double>(totalReqs);
}

double
RunOutput::hostEventsPerSec() const
{
    if (hostNs == 0)
        return 0.0;
    return static_cast<double>(hostEvents)
           / (static_cast<double>(hostNs) * 1e-9);
}

namespace {

/**
 * The sequence every run shares: start the host clock and build the
 * system; the caller installs its workload on sys and runs it, then
 * finish() fills the output while that workload is still alive.
 */
struct SystemRun
{
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    NdpSystem sys;

    explicit SystemRun(const SystemConfig &cfg) : sys(cfg) {}

    /** The output of a run that took @p time and completed @p ops. */
    RunOutput
    finish(Tick time, std::uint64_t ops)
    {
        RunOutput out;
        out.time = time;
        out.ops = ops;
        out.hostEvents = sys.machine().executedEvents();
        out.hostWindows = sys.kernelWindows();
        out.hostHeapEvents = sys.machine().heapEvents();
        out.stats = sys.stats();
        out.energy = computeEnergy(sys.stats(), sys.config());
        if (engine::SynCronBackend *eng = sys.syncronBackend()) {
            out.stMaxFrac =
                static_cast<double>(sys.stats().stMaxOccupied)
                / sys.config().stEntries;
            out.stAvgFrac =
                sys.stats().avgStOccupancy() / sys.config().stEntries;
            out.overflowedReqs = eng->overflowedRequests();
            out.totalReqs = eng->totalRequests();
        }
        out.hostNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        return out;
    }
};

/** Builds one @p Structure, then spawns its worker on every client
 *  core (the structure must exist before any worker runs). */
template <typename Structure>
RunOutput
runStructure(const SystemConfig &cfg, unsigned initialSize,
             unsigned opsPerCore)
{
    SystemRun run(cfg);
    Structure structure(run.sys, initialSize);
    const unsigned n = run.sys.numClientCores();
    for (unsigned i = 0; i < n; ++i) {
        core::Core &c = run.sys.clientCore(i);
        run.sys.spawn(structure.worker(c, opsPerCore), c);
    }
    run.sys.run();
    return run.finish(run.sys.elapsed(),
                      static_cast<std::uint64_t>(n) * opsPerCore);
}

} // namespace

RunOutput
runDataStructure(const SystemConfig &cfg, DsKind kind,
                 unsigned initialSize, unsigned opsPerCore)
{
    using namespace workloads;
    switch (kind) {
      case DsKind::Stack:
        return runStructure<SimStack>(cfg, initialSize, opsPerCore);
      case DsKind::Queue:
        return runStructure<SimQueue>(cfg, initialSize, opsPerCore);
      case DsKind::ArrayMap:
        return runStructure<SimArrayMap>(cfg, initialSize, opsPerCore);
      case DsKind::PriorityQueue:
        return runStructure<SimPriorityQueue>(cfg, initialSize,
                                              opsPerCore);
      case DsKind::SkipList:
        return runStructure<SimSkipList>(cfg, initialSize, opsPerCore);
      case DsKind::HashTable:
        return runStructure<SimHashTable>(cfg, initialSize, opsPerCore);
      case DsKind::LinkedList:
        return runStructure<SimLinkedList>(cfg, initialSize, opsPerCore);
      case DsKind::BstFg:
        return runStructure<SimBstFg>(cfg, initialSize, opsPerCore);
      case DsKind::BstDrachsler:
        return runStructure<SimBstDrachsler>(cfg, initialSize,
                                             opsPerCore);
    }
    SYNCRON_PANIC("unknown data structure");
}

RunOutput
runPrimitive(const SystemConfig &cfg, workloads::Primitive primitive,
             unsigned interval, unsigned opsPerCore)
{
    SystemRun run(cfg);
    workloads::PrimitiveWorkload workload(run.sys, primitive, interval,
                                          opsPerCore);
    run.sys.run();
    return run.finish(run.sys.elapsed(), run.sys.stats().syncOps);
}

RunOutput
runSemFanout(const SystemConfig &cfg, unsigned width, unsigned rounds,
             bool contended)
{
    SystemRun run(cfg);
    workloads::SemFanoutWorkload workload(run.sys, width, rounds,
                                          contended);
    run.sys.run();
    return run.finish(run.sys.elapsed(), run.sys.stats().syncOps);
}

RunOutput
runReplication(const SystemConfig &cfg,
               const workloads::ReplicationParams &params)
{
    SystemRun run(cfg);
    workloads::ReplicationWorkload workload(run.sys, params);
    run.sys.run();
    return run.finish(run.sys.elapsed(), run.sys.stats().syncOps);
}

std::vector<AppInput>
allAppInputs()
{
    std::vector<AppInput> all;
    for (const char *app : {"bfs", "cc", "sssp", "pr", "tf", "tc"}) {
        for (const char *input : {"wk", "sl", "sx", "co"})
            all.push_back(AppInput{app, input});
    }
    all.push_back(AppInput{"ts", "air"});
    all.push_back(AppInput{"ts", "pow"});
    return all;
}

std::vector<AppInput>
sampleAppInputs()
{
    return {
        {"bfs", "sl"}, {"cc", "sx"},  {"sssp", "co"}, {"pr", "wk"},
        {"tf", "sl"},  {"tc", "sx"},  {"ts", "air"},  {"ts", "pow"},
    };
}

namespace {

/** Runs one graph application on a shared input and partition. */
RunOutput
runGraph(const SystemConfig &cfg, const workloads::Graph &g,
         workloads::GraphApp app, const std::vector<UnitId> &partition)
{
    SystemRun run(cfg);
    workloads::PlacedGraph placed(run.sys, g, partition);
    const workloads::GraphRunResult r =
        workloads::runGraphApp(run.sys, placed, app);
    return run.finish(r.time, r.updates);
}

/** Runs SCRIMP on a shared series. */
RunOutput
runTimeSeries(const SystemConfig &cfg,
              const workloads::ProxySeries &input)
{
    SystemRun run(cfg);
    workloads::ScrimpWorkload ts(run.sys, input);
    const Tick time = ts.run();
    return run.finish(time, ts.updates());
}

/**
 * One batch of cells. The proxy graphs, series and partitions its app
 * cells name are generated once, up front; grid workers only read them.
 */
class CellBatch
{
  public:
    explicit CellBatch(const std::vector<CellSpec> &specs)
    {
        for (const CellSpec &spec : specs) {
            const auto *app = std::get_if<CellSpec::App>(&spec.work);
            if (app == nullptr)
                continue;
            const Input in{app->input, app->inputScale};
            if (app->app == "ts") {
                if (!series_.count(in)) {
                    series_.emplace(in, workloads::makeProxySeries(
                                            app->input, app->inputScale));
                }
                continue;
            }
            if (!graphs_.count(in)) {
                graphs_.emplace(in, workloads::makeProxyInput(
                                        app->input, app->inputScale));
            }
            const unsigned units = spec.cfg.numUnits;
            const Placement at{in, units, app->metis};
            if (!partitions_.count(at)) {
                const workloads::Graph &g = graphs_.at(in);
                partitions_.emplace(
                    at, app->metis ? workloads::greedyPartition(g, units)
                                   : workloads::rangePartition(g, units));
            }
        }
    }

    /** Simulates @p spec; safe from any number of grid workers. */
    RunOutput
    run(const CellSpec &spec) const
    {
        const SystemConfig &cfg = spec.cfg;
        if (const auto *ds = std::get_if<CellSpec::Ds>(&spec.work)) {
            return runDataStructure(cfg, ds->kind, ds->initialSize,
                                    ds->opsPerCore);
        }
        if (const auto *p = std::get_if<CellSpec::Primitive>(&spec.work)) {
            return runPrimitive(cfg, p->primitive, p->interval,
                                p->opsPerCore);
        }
        if (const auto *f = std::get_if<CellSpec::SemFanout>(&spec.work))
            return runSemFanout(cfg, f->width, f->rounds, f->contended);
        const auto &app = std::get<CellSpec::App>(spec.work);
        const Input in{app.input, app.inputScale};
        if (app.app == "ts")
            return runTimeSeries(cfg, series_.at(in));
        return runGraph(cfg, graphs_.at(in),
                        workloads::graphAppFromName(app.app),
                        partitions_.at(Placement{in, cfg.numUnits,
                                                 app.metis}));
    }

  private:
    using Input = std::pair<std::string, double>; ///< (name, scale)
    using Placement = std::tuple<Input, unsigned, bool>; ///< units, metis

    std::map<Input, workloads::Graph> graphs_;
    std::map<Input, workloads::ProxySeries> series_;
    std::map<Placement, std::vector<UnitId>> partitions_;
};

} // namespace

std::vector<RunOutput>
runCells(const std::vector<CellSpec> &specs, unsigned jobs,
         std::size_t *failedIndex)
{
    const CellBatch batch(specs);
    auto taskFor = [&batch](const CellSpec &spec) {
        return [&batch, &spec] { return batch.run(spec); };
    };
    std::vector<decltype(taskFor(specs.front()))> tasks;
    for (const CellSpec &spec : specs)
        tasks.push_back(taskFor(spec));
    return runGrid(std::move(tasks), jobs, failedIndex);
}

RunOutput
runOpenLoop(const SystemConfig &cfg, const load::LoadSpec &spec,
            const load::ArrivalSchedule &sched)
{
    SystemRun run(cfg);
    load::OpenLoopWorkload workload(run.sys, spec, sched);
    run.sys.run();

    const load::LoadCounters totals = workload.totals();
    RunOutput out = run.finish(run.sys.elapsed(), totals.issued);
    out.offeredOps = sched.totalArrivals();
    out.issuedOps = totals.issued;
    out.droppedOps = totals.dropped;
    out.queuedOps = totals.queued;
    out.queueDelayTicks = totals.queueDelayTicks;
    out.offeredRatePerUs = spec.ratePerUs;
    return out;
}

RunOutput
runOpenLoop(const SystemConfig &cfg, const load::LoadSpec &spec)
{
    const load::ArrivalSchedule sched =
        load::buildArrivalSchedule(spec, cfg.totalClientCores());
    return runOpenLoop(cfg, spec, sched);
}

RunOutput
runTrace(const SystemConfig &cfg, const trace::Trace &t)
{
    SystemRun run(cfg);
    trace::Replayer replayer(t);
    replayer.install(run.sys);
    run.sys.run();
    return run.finish(run.sys.elapsed(), replayer.opsReplayed());
}

} // namespace syncron::harness
