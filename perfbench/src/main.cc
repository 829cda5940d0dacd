/**
 * @file
 * Benchmark main program: runs one workload in a closed loop for a fixed
 * host-time budget and prints every metric by name with its unit.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --scratch <dir> [--scale <f>] [--git-sha <sha>]
 *   perfbench --list-metrics
 *
 * One untraced warm-up iteration runs first; it is the reference every
 * later iteration's simulated outputs must reproduce bit for bit (the
 * same-seed self-check) and the source of the simulated metrics. Then
 * iterations repeat until --seconds of host time have passed. The
 * end-to-end host metrics are best-quarter means over them, scaled to
 * reference seconds by calibrate(); the per-layer host numbers are
 * medians. --trace 1 alternates untraced and
 * traced iterations and prints the per-layer metrics instead. The last
 * stdout line is the result object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments or a
 * simulator error, 3 a build that must not report host metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using syncron::kNumSyncOpKinds;
using syncron::SystemStats;

namespace {

struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better; ///< "higher" or "lower"
};

constexpr const char *kHigher = "higher";
constexpr const char *kLower = "lower";

const std::vector<MetricDef> &
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"host_ops_per_ref_s", "ops/ref_s", kHigher},
        {"setup_s", "s", kLower},
        {"peak_rss_mb", "MB", kLower},
        {"sim_ops_per_ms", "ops/ms", kHigher},
        {"sim_acquire_p50_ns", "ns", kLower},
        {"sim_acquire_p99_ns", "ns", kLower},
        {"sim_energy_nj_per_op", "nJ/op", kLower},
    };
    return defs;
}

constexpr const char *kRateNames[] = {"r0.4", "r1.6", "r6.4"};
constexpr const char *kDsCellNames[] = {"stack", "hash_table", "skip_list",
                                        "bst_st16"};
/// Spans whose self time the traced run reports.
constexpr const char *kSpanNames[] = {
    "workloads.build", "load.schedule",  "system.build",
    "sim.run",         "trace.generate", "trace.encode",
    "trace.decode",    "energy.compute", "sync.observer",
    "analysis.observe"};

const std::vector<MetricDef> &
perLayerDefs()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"host.wall_ops_per_s", "ops/s", kHigher},
            {"sim.events_per_op", "count", kLower},
            {"sim.run_self_ns_per_event", "ns", kLower},
            {"shard.count", "count", kHigher},
            {"shard.windows_est", "count", kLower},
            {"shard.events_per_window", "count", kHigher},
            {"shard.speedup", "ratio", kHigher},
            {"system.build_s", "s", kLower},
            {"workloads.build_s", "s", kLower},
            {"load.schedule_s", "s", kLower},
        };
        const std::string pre[] = {"load.late_frac.", "load.mean_lateness_ns.",
                                   "sim_p99_ns."};
        for (const char *r : kRateNames) {
            d.push_back({pre[0] + r, "ratio", kLower});
            d.push_back({pre[1] + r, "ns", kLower});
            d.push_back({pre[2] + r, "ns", kLower});
        }
        d.push_back({"load.dropped", "count", kLower});
        d.push_back({"sim_max_rate_per_us", "1/us", kHigher});
        for (const std::string m :
             {"syncron.st_overflow_frac", "syncron.mem_accesses_per_op",
              "syncron.overflow_msgs_per_op"}) {
            const char *unit = m.ends_with("frac") ? "ratio" : "count";
            d.push_back({m, unit, kLower});
            d.push_back({m + ".bst_st16", unit, kLower});
        }
        d.push_back({"syncron.st_max_occupied", "count", kLower});
        d.push_back({"syncron.local_msgs_per_op", "count", kLower});
        d.push_back({"syncron.global_msgs_per_op", "count", kLower});
        for (const std::string c : kDsCellNames) {
            d.push_back({"sim_ops_per_ms." + c, "ops/ms", kHigher});
            d.push_back({"sim_acquire_p99_ns." + c, "ns", kLower});
        }
        d.push_back({"net.xbar_msgs_per_op", "count", kLower});
        d.push_back({"net.link_msgs_per_op", "count", kLower});
        d.push_back({"net.link_flits_per_op", "count", kLower});
        d.push_back({"net.bytes_across_units_per_op", "B", kLower});
        d.push_back({"mem.dram_accesses_per_op", "count", kLower});
        d.push_back({"mem.row_hit_frac", "ratio", kHigher});
        d.push_back({"cache.l1_hit_frac", "ratio", kHigher});
        d.push_back({"core.instructions_per_op", "count", kLower});
        d.push_back({"core.mem_ops_per_op", "count", kLower});
        d.push_back({"sync.acquire_samples", "count", kHigher});
        for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
            d.push_back({std::string("sync.lat_mean_ns.")
                             + syncron::sync::opKindName(
                                 static_cast<syncron::sync::OpKind>(k)),
                         "ns", kLower});
        }
        d.push_back({"sync.observer_ns_per_op", "ns", kLower});
        d.push_back({"trace.encode_ns_per_record", "ns", kLower});
        d.push_back({"trace.decode_ns_per_record", "ns", kLower});
        d.push_back({"trace.bytes_per_record", "B", kLower});
        d.push_back({"analysis.ns_per_event", "ns", kLower});
        d.push_back({"analysis.findings", "count", kLower});
        d.push_back({"energy.cache_frac", "ratio", kLower});
        d.push_back({"energy.network_frac", "ratio", kLower});
        d.push_back({"energy.memory_frac", "ratio", kLower});
        d.push_back({"tracing_overhead_frac", "ratio", kLower});
        for (const std::string sp : kSpanNames)
            d.push_back({"self_ms." + sp, "ms", kLower});
        return d;
    }();
    return defs;
}

// -- Output helpers ----------------------------------------------------

std::string
num(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// -- Arguments ---------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    double scale = 1.0;
    std::string scratch;
    std::string gitSha = "unknown";
    bool listMetrics = false;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scratch <dir> "
                 "[--scale <f>] [--git-sha <sha>] | --list-metrics\n";
    std::exit(2);
}

double
parseNumber(const char *flag, const char *val)
{
    char *end = nullptr;
    const double v = std::strtod(val, &end);
    if (*val == '\0' || *end != '\0' || !std::isfinite(v) || v <= 0.0)
        usageError(std::string("bad value for ") + flag + ": '" + val + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list-metrics") {
            a.listMetrics = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError("missing value for " + flag);
        const char *val = argv[++i];
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = static_cast<std::uint64_t>(parseNumber("--seed", val));
            if (static_cast<double>(a.seed) != std::strtod(val, nullptr))
                usageError("--seed needs a positive integer");
        } else if (flag == "--seconds") {
            a.seconds = parseNumber("--seconds", val);
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usageError("--trace needs 0 or 1");
            a.trace = val[0] - '0';
        } else if (flag == "--scale") {
            a.scale = parseNumber("--scale", val);
        } else if (flag == "--scratch") {
            a.scratch = val;
        } else if (flag == "--git-sha") {
            a.gitSha = val;
        } else {
            usageError("unknown argument " + flag);
        }
    }
    if (a.listMetrics)
        return a;
    if (a.workload.empty() || a.seed == 0 || a.seconds <= 0.0
        || a.trace < 0 || a.scratch.empty())
        usageError("--workload, --seed, --seconds, --trace and --scratch "
                   "are required");
    return a;
}

// -- Metrics -----------------------------------------------------------

/** Sums of the simulated outputs over a set of cells. */
struct SimAgg
{
    SystemStats stats;
    syncron::EnergyBreakdown energy;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    std::uint64_t overflowed = 0;
    std::uint64_t stReqs = 0;
    double windows = 0.0;
    unsigned shards = 0;
    std::uint64_t acquireSamples = 0;
    std::array<std::uint64_t, kNumSyncOpKinds> kindCount{};
    std::array<std::uint64_t, kNumSyncOpKinds> kindTicks{};

    void
    add(const Cell &c)
    {
        stats += c.stats;
        energy.cacheJ += c.energy.cacheJ;
        energy.networkJ += c.energy.networkJ;
        energy.memoryJ += c.energy.memoryJ;
        energy.pmJ += c.energy.pmJ;
        ops += c.ops;
        events += c.events;
        overflowed += c.overflowedReqs;
        stReqs += c.totalReqs;
        if (c.lookahead > 0)
            windows += static_cast<double>(c.simTicks)
                       / static_cast<double>(c.lookahead);
        shards = std::max(shards, c.shards);
        acquireSamples += c.acquireLat.size();
        for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
            kindCount[k] += c.kindCount[k];
            kindTicks[k] += c.kindTicks[k];
        }
    }

    double perOp(double v) const { return ratio(v, static_cast<double>(ops)); }
};

SimAgg
aggregate(const Iteration &it)
{
    SimAgg agg;
    for (const Cell &c : it.cells) {
        if (c.inMetrics)
            agg.add(c);
    }
    return agg;
}

const Cell *
findCell(const Iteration &it, const std::string &name)
{
    for (const Cell &c : it.cells) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

double
p99Ns(const std::vector<Tick> &sorted)
{
    return static_cast<double>(nearestRank(sorted, 0.99)) / 1000.0;
}

/** Median over @p its of @p f(iteration). */
template <typename F>
double
medianOver(const std::vector<Iteration> &its, F &&f)
{
    std::vector<double> v;
    for (const Iteration &it : its)
        v.push_back(f(it));
    return median(v);
}

/** Sync ops per host second inside run(), by wall or CPU time. */
double
opsPerSecond(const Iteration &it, std::uint64_t HostTime::*clock)
{
    return ratio(static_cast<double>(it.syncOps()),
                 static_cast<double>(it.runTotal().*clock) / 1e9);
}

/** Geometric mean of @p f over the metric cells (each counts equally). */
template <typename F>
double
geomeanOverCells(const Iteration &it, F &&f)
{
    double logSum = 0.0;
    unsigned n = 0;
    for (const Cell &c : it.cells) {
        if (!c.inMetrics)
            continue;
        logSum += std::log(f(c));
        ++n;
    }
    return n ? std::exp(logSum / n) : 0.0;
}

std::map<std::string, double>
endToEnd(const Iteration &warm, const std::vector<Iteration> &plain)
{
    std::vector<double> opsPerCpuS, setupS, calibS;
    for (const Iteration &it : plain) {
        opsPerCpuS.push_back(opsPerSecond(it, &HostTime::cpuNs));
        setupS.push_back(static_cast<double>(it.setupTotal().cpuNs) / 1e9);
        calibS.push_back(static_cast<double>(it.calib.cpuNs) / 1e9);
    }
    // Host speed over the reference host's: above 1 when this run's
    // host was faster. Best quarters on both sides, so a burst of load
    // that slows a few iterations or calibrations moves neither.
    const double speed = kCalibRefCpuS / bestQuarterMean(calibS, false);
    std::map<std::string, double> m;
    m["host_ops_per_ref_s"] = bestQuarterMean(opsPerCpuS, true) / speed;
    m["setup_s"] = bestQuarterMean(setupS, false) * speed;
    m["peak_rss_mb"] = peakRssMb();
    m["sim_ops_per_ms"] = geomeanOverCells(warm, [](const Cell &c) {
        return ratio(static_cast<double>(c.ops),
                     static_cast<double>(c.simTicks) / 1e9);
    });
    m["sim_acquire_p50_ns"] = geomeanOverCells(warm, [](const Cell &c) {
        return static_cast<double>(nearestRank(c.acquireLat, 0.5)) / 1000.0;
    });
    m["sim_acquire_p99_ns"] = geomeanOverCells(
        warm, [](const Cell &c) { return p99Ns(c.acquireLat); });
    m["sim_energy_nj_per_op"] = geomeanOverCells(warm, [](const Cell &c) {
        return ratio(c.energy.total() * 1e9, static_cast<double>(c.ops));
    });
    return m;
}

std::map<std::string, double>
perLayer(const Iteration &warm, const std::vector<Iteration> &plain,
         const std::vector<Iteration> &traced)
{
    std::map<std::string, double> m;
    for (const MetricDef &d : perLayerDefs())
        m[d.name] = 0.0; // 0 = the workload does not drive this layer
    const SimAgg agg = aggregate(warm);
    const SystemStats &s = agg.stats;

    // -- Simulated counts (warm-up iteration; every other repeats it)
    m["sim.events_per_op"] = agg.perOp(static_cast<double>(agg.events));
    m["shard.count"] = agg.shards;
    m["shard.windows_est"] = agg.windows;
    m["shard.events_per_window"] =
        ratio(static_cast<double>(agg.events), agg.windows);
    for (const char *r : kRateNames) {
        if (const Cell *c = findCell(warm, r)) {
            const std::string n = r;
            m["load.late_frac." + n] = ratio(static_cast<double>(c->late),
                                             static_cast<double>(c->offered));
            m["load.mean_lateness_ns." + n] =
                ratio(static_cast<double>(c->lateTicks) / 1000.0,
                      static_cast<double>(c->late));
            m["sim_p99_ns." + n] = p99Ns(c->acquireLat);
        }
    }
    for (const Cell &c : warm.cells)
        m["load.dropped"] += static_cast<double>(c.dropped);
    m["syncron.st_overflow_frac"] =
        ratio(static_cast<double>(agg.overflowed),
              static_cast<double>(agg.stReqs));
    m["syncron.mem_accesses_per_op"] =
        agg.perOp(static_cast<double>(s.syncMemAccesses));
    m["syncron.overflow_msgs_per_op"] =
        agg.perOp(static_cast<double>(s.syncOverflowMsgs));
    m["syncron.st_max_occupied"] = static_cast<double>(s.stMaxOccupied);
    m["syncron.local_msgs_per_op"] =
        agg.perOp(static_cast<double>(s.syncLocalMsgs));
    m["syncron.global_msgs_per_op"] =
        agg.perOp(static_cast<double>(s.syncGlobalMsgs));
    if (const Cell *c = findCell(warm, "bst_st16")) {
        const double cops = static_cast<double>(c->ops);
        m["syncron.st_overflow_frac.bst_st16"] =
            ratio(static_cast<double>(c->overflowedReqs),
                  static_cast<double>(c->totalReqs));
        m["syncron.mem_accesses_per_op.bst_st16"] =
            ratio(static_cast<double>(c->stats.syncMemAccesses), cops);
        m["syncron.overflow_msgs_per_op.bst_st16"] =
            ratio(static_cast<double>(c->stats.syncOverflowMsgs), cops);
    }
    for (const char *name : kDsCellNames) {
        if (const Cell *c = findCell(warm, name)) {
            const std::string n = name;
            m["sim_ops_per_ms." + n] =
                ratio(static_cast<double>(c->ops),
                      static_cast<double>(c->simTicks) / 1e9);
            m["sim_acquire_p99_ns." + n] = p99Ns(c->acquireLat);
        }
    }
    m["net.xbar_msgs_per_op"] = agg.perOp(static_cast<double>(s.xbarMessages));
    m["net.link_msgs_per_op"] = agg.perOp(static_cast<double>(s.linkMessages));
    m["net.link_flits_per_op"] = agg.perOp(static_cast<double>(s.linkFlits));
    m["net.bytes_across_units_per_op"] =
        agg.perOp(static_cast<double>(s.bytesAcrossUnits));
    m["mem.dram_accesses_per_op"] =
        agg.perOp(static_cast<double>(s.dramReads + s.dramWrites));
    m["mem.row_hit_frac"] =
        ratio(static_cast<double>(s.dramRowHits),
              static_cast<double>(s.dramRowHits + s.dramRowMisses));
    m["cache.l1_hit_frac"] =
        ratio(static_cast<double>(s.l1Hits),
              static_cast<double>(s.l1Hits + s.l1Misses));
    m["core.instructions_per_op"] =
        agg.perOp(static_cast<double>(s.instructions));
    m["core.mem_ops_per_op"] = agg.perOp(static_cast<double>(s.memOps));
    m["sync.acquire_samples"] = static_cast<double>(agg.acquireSamples);
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
        m[std::string("sync.lat_mean_ns.")
          + syncron::sync::opKindName(static_cast<syncron::sync::OpKind>(k))] =
            ratio(static_cast<double>(agg.kindTicks[k]) / 1000.0,
                  static_cast<double>(agg.kindCount[k]));
    }
    const double etotal = agg.energy.total();
    m["energy.cache_frac"] = ratio(agg.energy.cacheJ, etotal);
    m["energy.network_frac"] = ratio(agg.energy.networkJ, etotal);
    m["energy.memory_frac"] = ratio(agg.energy.memoryJ, etotal);
    for (const auto &[k, v] : warm.sim)
        m[k] = v;

    // -- Host values of the untraced iterations
    {
        std::vector<double> v;
        for (const Iteration &it : plain)
            v.push_back(opsPerSecond(it, &HostTime::wallNs));
        m["host.wall_ops_per_s"] = bestQuarterMean(v, true);
    }
    for (const auto &entry : warm.host) {
        const std::string &key = entry.first;
        m[key] = medianOver(plain, [&key](const Iteration &it) {
            auto f = it.host.find(key);
            return f != it.host.end() ? f->second : 0.0;
        });
    }

    // -- Traced iterations: self times and callback costs
    std::vector<std::map<std::string, std::uint64_t>> self;
    for (const Iteration &it : traced)
        self.push_back(selfTimeByName(it.spans));
    auto selfMedian = [&self](const std::string &name) {
        std::vector<double> v;
        for (const auto &byName : self) {
            auto f = byName.find(name);
            v.push_back(f != byName.end() ? static_cast<double>(f->second)
                                          : 0.0);
        }
        return median(v);
    };
    for (const char *sp : kSpanNames)
        m[std::string("self_ms.") + sp] = selfMedian(sp) / 1e6;
    m["system.build_s"] = selfMedian("system.build") / 1e9;
    m["workloads.build_s"] = selfMedian("workloads.build") / 1e9;
    m["load.schedule_s"] = selfMedian("load.schedule") / 1e9;
    {
        std::vector<double> v;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            std::uint64_t events = 0;
            for (const Cell &c : traced[i].cells)
                events += c.events;
            auto f = self[i].find("sim.run");
            v.push_back(ratio(
                f != self[i].end() ? static_cast<double>(f->second) : 0.0,
                static_cast<double>(events)));
        }
        m["sim.run_self_ns_per_event"] = median(v);
    }
    m["sync.observer_ns_per_op"] = medianOver(traced, [](const Iteration &it) {
        std::uint64_t ns = 0;
        for (const Cell &c : it.cells)
            ns += c.observerNs;
        return ratio(static_cast<double>(ns),
                     static_cast<double>(it.syncOps()));
    });
    m["analysis.ns_per_event"] = medianOver(traced, [](const Iteration &it) {
        std::uint64_t ns = 0, calls = 0;
        for (const Cell &c : it.cells) {
            ns += c.analysisNs;
            calls += c.analysisCalls;
        }
        return ratio(static_cast<double>(ns), static_cast<double>(calls));
    });
    // Median host ns of one cell: run only, or set-up plus run.
    auto cellMedian = [](const std::vector<Iteration> &its,
                         const std::string &name, bool withSetup) {
        return medianOver(its, [&](const Iteration &it) {
            const Cell *c = findCell(it, name);
            return c ? static_cast<double>(
                           c->run.wallNs + (withSetup ? c->setup.wallNs : 0))
                     : 0.0;
        });
    };
    if (!traced.empty() && findCell(traced.front(), "shards1")) {
        m["shard.speedup"] = ratio(cellMedian(traced, "shards1", false),
                                   cellMedian(traced, "shards4", false));
    }
    // Overhead over the cells both kinds of iteration run.
    double plainNs = 0.0, tracedNs = 0.0;
    if (!plain.empty() && !traced.empty()) {
        for (const Cell &c : plain.front().cells) {
            if (!findCell(traced.front(), c.name))
                continue;
            plainNs += cellMedian(plain, c.name, true);
            tracedNs += cellMedian(traced, c.name, true);
        }
    }
    m["tracing_overhead_frac"] = ratio(tracedNs - plainNs, plainNs);
    return m;
}

/** Errors of an iteration: its own plus every cell's. */
std::vector<std::string>
errorsOf(const Iteration &it)
{
    std::vector<std::string> e = it.errors;
    for (const Cell &c : it.cells)
        e.insert(e.end(), c.errors.begin(), c.errors.end());
    return e;
}

/** Same-seed self-check: @p it must repeat @p ref's simulated outputs. */
void
checkRepeats(const Iteration &ref, const Iteration &it,
             std::set<std::string> &errors)
{
    for (const Cell &c : it.cells) {
        const Cell *r = findCell(ref, c.name);
        if (r == nullptr || simFingerprint(*r) != simFingerprint(c))
            errors.insert("cell " + c.name
                             + " did not repeat the warm-up run's "
                               "simulated outputs");
    }
    if (it.sim != ref.sim)
        errors.insert("workload-level simulated values changed "
                         "between same-seed runs");
}

std::string
provenanceJson(const Args &a)
{
    std::ostringstream os;
    os << "{\"git_sha\": " << quoted(a.gitSha)
       << ", \"compiler\": " << quoted(std::string("g++ ") + __VERSION__)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ", \"workload\": " << quoted(a.workload)
       << ", \"seed\": " << a.seed << ", \"seconds\": " << num(a.seconds)
       << ", \"trace\": " << a.trace << ", \"scale\": " << num(a.scale)
       << "}";
    return os.str();
}

/** Refuses host metrics from sanitizer or non-Release builds. */
const char *
unfitBuild()
{
#if defined(SYNCRON_SANITIZER) || defined(__SANITIZE_ADDRESS__)           \
    || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#else
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        return "non-Release build (" PERFBENCH_BUILD_TYPE ")";
    return nullptr;
#endif
}

void
writeSpans(const std::string &path, const std::vector<Iteration> &traced)
{
    std::ofstream os(path);
    os << "{\"spans\": [";
    bool first = true;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        for (const Span &s : traced[i].spans) {
            os << (first ? "\n" : ",\n") << "  {\"iteration\": " << i
               << ", \"name\": " << quoted(s.name)
               << ", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs << ", \"parent\": "
               << s.parent << ", \"cell\": " << s.cell << "}";
            first = false;
        }
    }
    os << "\n]}\n";
}

int
runBenchmark(const Args &args)
{
    const Workload *w = nullptr;
    for (const Workload &cand : allWorkloads()) {
        if (args.workload == cand.name)
            w = &cand;
    }
    if (w == nullptr)
        usageError("unknown workload '" + args.workload + "'");
    if (const char *why = unfitBuild()) {
        std::cerr << "perfbench: refusing to report host metrics from a "
                  << why << "\n";
        return 3;
    }
    std::cout << "provenance " << provenanceJson(args) << "\n";

    Tracer untraced(false);
    Tracer tracing(true);
    RunCtx ctx;
    ctx.seed = args.seed;
    ctx.scale = args.scale;
    ctx.scratch = args.scratch;

    auto runOne = [&](Tracer &tr, bool reference) {
        ctx.tracer = &tr;
        ctx.reference = reference;
        ctx.nextCellId = 0;
        ++ctx.iteration;
        Iteration it;
        {
            ScopedSpan root(tr, "iteration", -1);
            it = w->run(ctx);
        }
        it.spans = tr.take();
        return it;
    };

    // Warm-up + reference: untraced, with the helper cells.
    const Iteration warm = runOne(untraced, true);
    // A set: a failure the warm-up shows repeats in every iteration.
    std::set<std::string> errors;
    for (const std::string &e : errorsOf(warm))
        errors.insert(e);

    std::vector<Iteration> plain, traced;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(args.seconds * 1e9);
    constexpr std::size_t kMinPlain = 3, kMinTraced = 2;
    for (;;) {
        const bool timeLeft = nowNs() < deadline;
        const bool needPlain = plain.size() < kMinPlain;
        const bool needTraced = args.trace == 1 && traced.size() < kMinTraced;
        if (!timeLeft && !needPlain && !needTraced)
            break;
        // Traced mode alternates, so both kinds see the same host state.
        const bool doTraced = args.trace == 1 && traced.size() < plain.size();
        const HostTime calib = calibrate();
        Iteration it = doTraced ? runOne(tracing, true)
                                : runOne(untraced, false);
        it.calib = calib;
        checkRepeats(warm, it, errors);
        for (const std::string &e : errorsOf(it))
            errors.insert(e);
        // Only the warm-up's latencies feed metrics; dropping the rest
        // keeps peak RSS independent of how many iterations ran.
        for (Cell &c : it.cells)
            std::vector<Tick>().swap(c.acquireLat);
        (doTraced ? traced : plain).push_back(std::move(it));
    }

    std::uint64_t attempted = 0, failed = 0;
    auto count = [&](const Iteration &it) {
        for (const Cell &c : it.cells) {
            attempted += c.attempted;
            failed += c.failed;
        }
    };
    count(warm);
    std::for_each(plain.begin(), plain.end(), count);
    std::for_each(traced.begin(), traced.end(), count);

    // -- Human-readable detail
    for (const Cell &c : warm.cells) {
        std::cout << "cell " << c.name << (c.inMetrics ? "" : " (helper)")
                  << ": sim_ticks=" << c.simTicks << " ops=" << c.ops
                  << " sync_ops=" << c.stats.syncOps
                  << " events=" << c.events << " shards=" << c.shards
                  << " acquire_samples=" << c.acquireLat.size()
                  << " acquire_p50_ns="
                  << num(static_cast<double>(nearestRank(c.acquireLat, 0.5))
                         / 1000.0)
                  << " acquire_p99_ns=" << num(p99Ns(c.acquireLat))
                  << " host_setup_ms=" << num(c.setup.wallNs / 1e6)
                  << " host_run_ms=" << num(c.run.wallNs / 1e6) << "\n";
        const std::size_t beyond = samplesBeyond(c.acquireLat.size(), 0.99);
        if (c.inMetrics && beyond < 10)
            std::cout << "warning: acquire p99 of cell " << c.name
                      << " has only " << beyond << " samples beyond it\n";
    }
    std::cout << "iterations: warm-up 1, untraced " << plain.size()
              << ", traced " << traced.size() << "\n";
    auto perIteration = [&plain](const char *label, auto &&ns) {
        std::cout << label;
        for (const Iteration &it : plain)
            std::cout << " " << num(static_cast<double>(ns(it)) / 1e6);
        std::cout << "\n";
    };
    perIteration("host_run_wall_ms:",
                 [](const Iteration &it) { return it.runTotal().wallNs; });
    perIteration("host_run_cpu_ms:",
                 [](const Iteration &it) { return it.runTotal().cpuNs; });
    perIteration("host_setup_cpu_ms:",
                 [](const Iteration &it) { return it.setupTotal().cpuNs; });
    perIteration("calib_cpu_ms:",
                 [](const Iteration &it) { return it.calib.cpuNs; });
    std::map<std::string, double> values;
    const std::vector<MetricDef> *defs = nullptr;
    if (args.trace == 0) {
        values = endToEnd(warm, plain);
        defs = &endToEndDefs();
    } else {
        values = perLayer(warm, plain, traced);
        defs = &perLayerDefs();
        const std::string spanPath = args.scratch + "/spans-" + args.workload
                                     + "-seed" + std::to_string(args.seed)
                                     + ".json";
        writeSpans(spanPath, traced);
        std::cout << "spans: " << spanPath << "\n";
    }

    std::ostringstream metrics;
    metrics << "{";
    for (std::size_t i = 0; i < defs->size(); ++i) {
        const MetricDef &d = (*defs)[i];
        double v = values.at(d.name);
        if (!std::isfinite(v)) {
            errors.insert("metric " + d.name + " is not finite");
            v = 0.0;
        }
        metrics << (i ? ", " : "") << quoted(d.name) << ": {\"value\": "
                << num(v) << ", \"unit\": " << quoted(d.unit) << "}";
    }
    metrics << "}";

    // Provenance rides on the written record next to its metrics.
    {
        std::ofstream rec(args.scratch + "/record-" + args.workload + "-seed"
                          + std::to_string(args.seed) + "-trace"
                          + std::to_string(args.trace) + ".json");
        rec << "{\"provenance\": " << provenanceJson(args)
            << ", \"metrics\": " << metrics.str() << "}\n";
    }

    for (const std::string &e : errors)
        std::cout << "CHECK FAILED: " << e << "\n";
    const bool correct = errors.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": " << metrics.str() << "}"
              << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.listMetrics) {
        // BENCHMARK.json's metric lists, for the benchmark's own tests.
        for (const auto &[kind, defs] :
             {std::pair{"end_to_end", &endToEndDefs()},
              std::pair{"per_layer", &perLayerDefs()}}) {
            for (const MetricDef &d : *defs) {
                std::cout << kind << " " << d.name << " " << d.unit << " "
                          << d.better << "\n";
            }
        }
        return 0;
    }
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
