#include "harness/runner.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/log.hh"
#include "load/openloop.hh"
#include "sync/registry.hh"
#include "system/system.hh"
#include "trace/replay.hh"
#include "workloads/datastructures/structures.hh"
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
           "  --trace-in=<path>  replay an existing trace file (needs "
           "--jobs=1)\n"
           "  --trace-corpus=<d> mmap-replay every *.trc in directory d "
           "back-to-back\n"
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

/** Value of "--opt=value"-style @p arg, or nullptr if no match. */
const char *
optValue(const char *arg, const char *prefix)
{
    const std::size_t n = std::strlen(prefix);
    if (std::strncmp(arg, prefix, n) != 0)
        return nullptr;
    return arg + n;
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
            char *end = nullptr;
            errno = 0;
            opts.scale = std::strtod(val, &end);
            if (*val == '\0' || end == nullptr || *end != '\0'
                || errno != 0 || !std::isfinite(opts.scale)
                || !(opts.scale > 0.0) || opts.scale > kMaxScale) {
                SYNCRON_FATAL("bad --scale value '"
                              << val << "' (need a number in (0, "
                              << kMaxScale << "])\n"
                              << usage());
            }
        } else if ((val = optValue(arg, "--jobs="))) {
            char *end = nullptr;
            errno = 0;
            const long jobs = std::strtol(val, &end, 10);
            if (*val == '\0' || end == nullptr || *end != '\0'
                || errno != 0 || jobs < 1
                || jobs > static_cast<long>(kMaxJobs)) {
                SYNCRON_FATAL("bad --jobs value '"
                              << val << "' (need 1.." << kMaxJobs
                              << ")\n"
                              << usage());
            }
            opts.jobs = static_cast<unsigned>(jobs);
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
        } else if ((val = optValue(arg, "--trace-corpus="))) {
            if (*val == '\0') {
                SYNCRON_FATAL("--trace-corpus needs a directory\n"
                              << usage());
            }
            opts.traceCorpus = val;
        } else if (std::strcmp(arg, "--analyze") == 0) {
            opts.analyze = true;
        } else if ((val = optValue(arg, "--persist="))) {
            std::string mode = val;
            const std::size_t colon = mode.find(':');
            if (colon != std::string::npos) {
                const std::string count = mode.substr(colon + 1);
                mode.resize(colon);
                char *end = nullptr;
                errno = 0;
                const long n = std::strtol(count.c_str(), &end, 10);
                if (count.empty() || end == nullptr || *end != '\0'
                    || errno != 0 || n < 1) {
                    SYNCRON_FATAL("bad --persist epoch count '"
                                  << count << "' (need >= 1)\n"
                                  << usage());
                }
                opts.persistEpochOps = static_cast<unsigned>(n);
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
            char *end = nullptr;
            errno = 0;
            const unsigned long long t = std::strtoull(val, &end, 10);
            if (*val == '\0' || end == nullptr || *end != '\0'
                || errno != 0 || t == 0) {
                SYNCRON_FATAL("bad --crash-at value '"
                              << val << "' (need a tick >= 1)\n"
                              << usage());
            }
            opts.crashAt = static_cast<Tick>(t);
        } else if ((val = optValue(arg, "--crash-sweep="))) {
            char *end = nullptr;
            errno = 0;
            const long n = std::strtol(val, &end, 10);
            if (*val == '\0' || end == nullptr || *end != '\0'
                || errno != 0 || n < 1) {
                SYNCRON_FATAL("bad --crash-sweep value '"
                              << val << "' (need >= 1)\n"
                              << usage());
            }
            opts.crashSweepEvery = static_cast<unsigned>(n);
        } else if ((val = optValue(arg, "--sim-shards="))) {
            char *end = nullptr;
            errno = 0;
            const long n = std::strtol(val, &end, 10);
            if (*val == '\0' || end == nullptr || *end != '\0'
                || errno != 0 || n < 1
                || n > static_cast<long>(kMaxShards)) {
                SYNCRON_FATAL("bad --sim-shards value '"
                              << val << "' (need 1.." << kMaxShards
                              << ")\n"
                              << usage());
            }
            opts.simShards = static_cast<unsigned>(n);
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
            char *end = nullptr;
            errno = 0;
            const double ns = std::strtod(val, &end);
            if (*val == '\0' || end == nullptr || *end != '\0'
                || errno != 0 || !std::isfinite(ns) || !(ns > 0.0)) {
                SYNCRON_FATAL("bad --slo-p99 value '"
                              << val
                              << "' (need a positive latency in ns)\n"
                              << usage());
            }
            opts.sloP99Ns = ns;
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
    // Capture (and, for symmetry, replay-from-file) is single-job only:
    // parallel grid cells all inherit the same tracePath and would race
    // writing the one file.
    if ((!opts.traceOut.empty() || !opts.traceIn.empty())
        && opts.jobs > 1) {
        SYNCRON_FATAL("--trace-out/--trace-in require --jobs=1 "
                      "(parallel grid cells would race on the trace "
                      "file)\n"
                      << usage());
    }
    // A corpus IS a replay source; combining it with a single replay
    // file is ambiguous.
    if (!opts.traceCorpus.empty() && !opts.traceIn.empty()) {
        SYNCRON_FATAL("--trace-corpus and --trace-in are mutually "
                      "exclusive (one replay source)\n"
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

void
SharedInputs::prepare(const std::vector<AppInput> &combos, double scale)
{
    for (const AppInput &ai : combos) {
        if (ai.app == "ts")
            prepareSeries(ai.input, scale);
        else
            prepareGraph(ai.input, scale);
    }
}

void
SharedInputs::prepareGraph(const std::string &input, double scale)
{
    if (!graphs_.count(input))
        graphs_.emplace(input, workloads::makeProxyInput(input, scale));
}

void
SharedInputs::prepareSeries(const std::string &input, double scale)
{
    if (!series_.count(input))
        series_.emplace(input, workloads::makeProxySeries(input, scale));
}

std::string
SharedInputs::partitionKey(const std::string &input, unsigned numUnits,
                           bool metis)
{
    return input + "/" + std::to_string(numUnits)
           + (metis ? "/greedy" : "/range");
}

void
SharedInputs::preparePartition(const std::string &input,
                               unsigned numUnits, bool metis)
{
    const std::string key = partitionKey(input, numUnits, metis);
    if (partitions_.count(key))
        return;
    const workloads::Graph &g = graph(input);
    partitions_.emplace(key, metis
                                 ? workloads::greedyPartition(g, numUnits)
                                 : workloads::rangePartition(g, numUnits));
}

void
SharedInputs::preparePartitions(const std::vector<AppInput> &combos,
                                unsigned numUnits, bool metis)
{
    for (const AppInput &ai : combos) {
        if (ai.app != "ts")
            preparePartition(ai.input, numUnits, metis);
    }
}

const workloads::Graph &
SharedInputs::graph(const std::string &input) const
{
    auto it = graphs_.find(input);
    if (it == graphs_.end())
        SYNCRON_FATAL("graph input '" << input << "' was not prepared");
    return it->second;
}

const workloads::ProxySeries &
SharedInputs::series(const std::string &input) const
{
    auto it = series_.find(input);
    if (it == series_.end())
        SYNCRON_FATAL("series input '" << input << "' was not prepared");
    return it->second;
}

const std::vector<UnitId> &
SharedInputs::partition(const std::string &input, unsigned numUnits,
                        bool metis) const
{
    auto it = partitions_.find(partitionKey(input, numUnits, metis));
    if (it == partitions_.end()) {
        SYNCRON_FATAL("partition of '"
                      << input << "' over " << numUnits << " units ("
                      << (metis ? "greedy" : "range")
                      << ") was not prepared");
    }
    return it->second;
}


RunOutput
runGraph(const SystemConfig &cfg, const workloads::Graph &g,
         workloads::GraphApp app, const std::vector<UnitId> &partition)
{
    // Pre-computed (shared) partitions arrive from the caller: catch a
    // partition prepared for another graph or unit count here instead
    // of deep inside placement.
    if (partition.size() != g.numVertices)
        SYNCRON_FATAL("partition covers " << partition.size()
                                          << " vertices, graph has "
                                          << g.numVertices);
    for (UnitId u : partition) {
        if (u >= cfg.numUnits)
            SYNCRON_FATAL("partition places a vertex in unit "
                          << u << " of a " << cfg.numUnits
                          << "-unit system (partition prepared for a "
                             "different unit count?)");
    }

    SystemRun run(cfg);
    workloads::PlacedGraph placed(run.sys, g, partition);
    const workloads::GraphRunResult r =
        workloads::runGraphApp(run.sys, placed, app);
    return run.finish(r.time, r.updates);
}

RunOutput
runTimeSeries(const SystemConfig &cfg,
              const workloads::ProxySeries &input)
{
    SystemRun run(cfg);
    workloads::ScrimpWorkload ts(run.sys, input);
    const Tick time = ts.run();
    return run.finish(time, ts.updates());
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

RunOutput
runAppInput(const SystemConfig &cfg, const AppInput &ai,
            const SharedInputs &inputs, bool metisPartition)
{
    if (ai.app == "ts")
        return runTimeSeries(cfg, inputs.series(ai.input));
    return runGraph(cfg, inputs.graph(ai.input),
                    workloads::graphAppFromName(ai.app),
                    inputs.partition(ai.input, cfg.numUnits,
                                     metisPartition));
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
