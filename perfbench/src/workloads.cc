/**
 * @file
 * The benchmark's four workloads. Each iteration builds its systems
 * through the public constructors, times set-up and NdpSystem::run()
 * separately, records spans when traced, and checks its outputs.
 *
 *   ds_closed     — Table 5 machine on SynCron, closed loop: Stack,
 *                   Hash Table, Skip List, and BST_FG with a 16-entry ST.
 *   lock_openloop — Poisson acquire/release arrivals at fixed offered
 *                   rates, then a max-sustainable-rate search.
 *   sharded_units — Skip List on 16 units, 4 shard threads (1-shard
 *                   reference run for bit-identity and speedup).
 *   trace_replay  — scenario traces generated, encoded, decoded, and
 *                   replayed on Central with capture and live analysis.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/live.hh"
#include "bench.hh"
#include "harness/runner.hh"
#include "load/arrival.hh"
#include "load/openloop.hh"
#include "load/slo.hh"
#include "system/system.hh"
#include "trace/format.hh"
#include "trace/mmap_reader.hh"
#include "trace/replay.hh"
#include "trace/scenario.hh"
#include "workloads/datastructures/structures.hh"

namespace perfbench {

using namespace syncron;

namespace {

// Input sizes at --scale 1: each iteration takes 0.2-1 s of host time,
// every percentile cell has over 1000 acquire samples (so its p99 has
// at least ten beyond it), and the simulated metrics move by under 5 %
// between seeds.
constexpr double kDsScale = 8.0;
constexpr unsigned kOpenOpsPerCore = 1024;
constexpr double kShardScale = 6.0;
constexpr double kTraceScale = 4.0;

/// Open-loop offered rates, arrivals per core per simulated us.
constexpr double kRates[] = {0.4, 1.6, 6.4};
/// SLO of the max-rate search: acquire p99 and missed-arrival share.
constexpr double kSloP99Ns = 2000.0;
constexpr double kSloMissFrac = 0.01;
constexpr unsigned kSearchIters = 4;

constexpr auto kAcquire = static_cast<unsigned>(sync::OpKind::LockAcquire);
constexpr auto kRelease = static_cast<unsigned>(sync::OpKind::LockRelease);

/** Post-run step of a cell: reads workload state, fills and checks. */
using Finisher = std::function<void(Cell &)>;

/**
 * Owns the observers one cell installs. In the traced run every
 * observer sits behind a TimingForwarder so its callback time is
 * measured; untraced, observers are installed directly.
 */
class Hooks
{
  public:
    enum Layer
    {
        Observer, ///< the benchmark's op recorder ("sync.observer")
        Analysis, ///< the live analyzer ("analysis.observe")
        kLayers
    };

    Hooks(const SystemConfig &cfg, bool traced) : cfg_(cfg), traced_(traced)
    {}

    /** Installs @p obs on @p sys: primary observer or aux observer. */
    void
    attach(NdpSystem &sys, sync::OpObserver &obs, Layer layer,
           bool primary)
    {
        sync::OpObserver *installed = &obs;
        if (traced_) {
            fwds_[layer] = std::make_unique<TimingForwarder>(obs, cfg_);
            installed = fwds_[layer].get();
        }
        if (primary)
            sys.api().setObserver(installed);
        else
            sys.api().addAuxObserver(installed);
    }

    /** Constructs an observer whose lifetime must exceed the system's. */
    template <typename T, typename... Args>
    T &
    own(Args &&...args)
    {
        auto obj = std::make_unique<T>(std::forward<Args>(args)...);
        T &ref = *obj;
        owned_.push_back(std::move(obj));
        return ref;
    }

    std::uint64_t ns(Layer l) const { return fwds_[l] ? fwds_[l]->totalNs() : 0; }
    std::uint64_t calls(Layer l) const
    {
        return fwds_[l] ? fwds_[l]->calls() : 0;
    }

  private:
    const SystemConfig &cfg_;
    bool traced_;
    std::unique_ptr<TimingForwarder> fwds_[kLayers];
    std::vector<std::unique_ptr<sync::OpObserver>> owned_;
};

/**
 * Builds, runs, and harvests one simulation. @p install receives the
 * built system and returns the cell's Finisher; every object it creates
 * that the run needs must be captured by that Finisher.
 */
template <typename Install>
Cell
simulate(RunCtx &ctx, const std::string &name, const SystemConfig &cfg,
         Install &&install)
{
    Tracer &tr = *ctx.tracer;
    Cell cell;
    cell.name = name;
    cell.id = ctx.nextCellId++;
    ScopedSpan cellSpan(tr, "cell", cell.id);

    // Declaration order is destruction order reversed: observers outlive
    // the system that calls them; the workload objects die first.
    OpRecorder rec(cfg);
    Hooks hooks(cfg, tr.enabled());
    std::unique_ptr<NdpSystem> sys;
    Finisher finish;

    Stopwatch sw;
    {
        ScopedSpan s(tr, "system.build", cell.id);
        sys = std::make_unique<NdpSystem>(cfg);
    }
    hooks.attach(*sys, rec, Hooks::Observer, false);
    {
        ScopedSpan s(tr, "workloads.build", cell.id);
        finish = install(*sys, hooks);
    }
    cell.setup = sw.lap();
    {
        ScopedSpan s(tr, "sim.run", cell.id);
        sys->run();
        // Callback time summed by the forwarders, laid out as children
        // of sim.run so its self time excludes them.
        if (s.index() >= 0) {
            const std::uint64_t start = tr.spans()[s.index()].startNs;
            const std::uint64_t obs = hooks.ns(Hooks::Observer);
            tr.addClosed("sync.observer", s.index(), start, obs, cell.id);
            tr.addClosed("analysis.observe", s.index(), start + obs,
                         hooks.ns(Hooks::Analysis), cell.id);
        }
    }
    cell.run = sw.lap();
    cell.observerNs = hooks.ns(Hooks::Observer);
    cell.analysisNs = hooks.ns(Hooks::Analysis);
    cell.analysisCalls = hooks.calls(Hooks::Analysis);

    {
        ScopedSpan s(tr, "energy.compute", cell.id);
        cell.energy = computeEnergy(sys->stats(), sys->config());
    }
    cell.stats = sys->stats();
    cell.events = sys->machine().executedEvents();
    cell.simTicks = sys->elapsed();
    cell.shards = sys->machine().numShards();
    cell.lookahead = sys->machine().lookahead();
    if (engine::SynCronBackend *eng = sys->syncronBackend()) {
        cell.overflowedReqs = eng->overflowedRequests();
        cell.totalReqs = eng->totalRequests();
    }
    cell.acquireLat = rec.sortedAcquireLatencies();
    cell.kindCount = rec.counts();
    cell.kindTicks = rec.ticks();

    // The recorder must have seen every op the backend boundary counted,
    // and every acquire must have been released.
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
        if (cell.kindCount[k] != cell.stats.syncLatency[k].count) {
            cell.errors.push_back(
                std::string("observer saw ")
                + std::to_string(cell.kindCount[k]) + " "
                + sync::opKindName(static_cast<sync::OpKind>(k))
                + " ops, stats counted "
                + std::to_string(cell.stats.syncLatency[k].count));
        }
    }
    if (cell.kindCount[kAcquire] != cell.kindCount[kRelease]) {
        cell.errors.push_back(
            "acquires " + std::to_string(cell.kindCount[kAcquire])
            + " != releases " + std::to_string(cell.kindCount[kRelease]));
    }
    finish(cell);
    return cell;
}

/** Spawns one worker per client core on @p s. */
template <typename S>
void
spawnWorkers(NdpSystem &sys, S &s, unsigned opsPerCore)
{
    for (unsigned i = 0; i < sys.numClientCores(); ++i) {
        core::Core &c = sys.clientCore(i);
        sys.spawn(s.worker(c, opsPerCore), c);
    }
}

/**
 * Installs one data structure and returns the completed-op check.
 * Every worker runs its full loop (run() fatal()s on a blocked one);
 * the check then confirms the op count from the structure's own state
 * or from its fixed lock pattern.
 */
Finisher
installStructure(NdpSystem &sys, harness::DsKind kind,
                 const harness::DsParams &p)
{
    using harness::DsKind;
    const std::uint64_t expected =
        static_cast<std::uint64_t>(sys.numClientCores()) * p.opsPerCore;
    auto setOps = [expected](Cell &c) {
        c.ops = expected;
        c.attempted = expected;
    };
    auto fail = [expected](Cell &c, const std::string &what) {
        c.errors.push_back(c.name + ": " + what);
        c.failed = expected;
    };
    switch (kind) {
      case DsKind::Stack: {
        auto s = std::make_shared<workloads::SimStack>(sys, p.initialSize);
        spawnWorkers(sys, *s, p.opsPerCore);
        const std::size_t initial = s->size();
        return [=, keep = s](Cell &c) {
            setOps(c);
            if (s->size() != initial + expected)
                fail(c, "stack grew by " + std::to_string(s->size() - initial)
                            + ", expected " + std::to_string(expected));
        };
      }
      case DsKind::HashTable: {
        auto s =
            std::make_shared<workloads::SimHashTable>(sys, p.initialSize);
        spawnWorkers(sys, *s, p.opsPerCore);
        return [=, keep = s](Cell &c) {
            setOps(c);
            if (c.kindCount[kAcquire] != expected)
                fail(c, "bucket locks taken "
                            + std::to_string(c.kindCount[kAcquire])
                            + ", expected one per lookup");
        };
      }
      case DsKind::SkipList: {
        auto s = std::make_shared<workloads::SimSkipList>(sys, p.initialSize);
        spawnWorkers(sys, *s, p.opsPerCore);
        return [=, keep = s](Cell &c) {
            setOps(c);
            // One victim lock per deletion plus a predecessor lock
            // unless the victim is the first node.
            const std::uint64_t acq = c.kindCount[kAcquire];
            if (acq < expected || acq > 2 * expected)
                fail(c, "skip list took " + std::to_string(acq)
                            + " locks for " + std::to_string(expected)
                            + " deletions");
        };
      }
      case DsKind::BstFg: {
        auto s = std::make_shared<workloads::SimBstFg>(sys, p.initialSize);
        spawnWorkers(sys, *s, p.opsPerCore);
        return [=, keep = s](Cell &c) {
            setOps(c);
            // Every lookup locks at least the root.
            if (c.kindCount[kAcquire] < expected)
                fail(c, "BST_FG took "
                            + std::to_string(c.kindCount[kAcquire])
                            + " locks for " + std::to_string(expected)
                            + " lookups");
        };
      }
      default:
        break;
    }
    throw std::logic_error("structure not used by the benchmark");
}

// -- ds_closed ---------------------------------------------------------

struct DsCell
{
    const char *name;
    harness::DsKind kind;
    std::uint32_t stEntries;
};

constexpr DsCell kDsCells[] = {
    {"stack", harness::DsKind::Stack, 64},
    {"hash_table", harness::DsKind::HashTable, 64},
    {"skip_list", harness::DsKind::SkipList, 64},
    {"bst_st16", harness::DsKind::BstFg, 16},
};

Iteration
runDsClosed(RunCtx &ctx)
{
    Iteration it;
    for (const DsCell &dc : kDsCells) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 15);
        cfg.seed = ctx.seed;
        cfg.stEntries = dc.stEntries;
        const harness::DsParams p =
            harness::dsDefaults(dc.kind, kDsScale * ctx.scale);
        Cell c = simulate(ctx, dc.name, cfg,
                          [&](NdpSystem &sys, Hooks &) {
                              return installStructure(sys, dc.kind, p);
                          });
        if (dc.stEntries == 16 && c.overflowedReqs == 0) {
            c.errors.push_back(std::string(dc.name)
                               + ": no ST overflow with 16 entries");
            c.failed = c.ops;
        }
        it.cells.push_back(std::move(c));
    }
    return it;
}

// -- lock_openloop -----------------------------------------------------

/** Acquire p99 (ns) within the SLO and few enough late/dropped. */
bool
meetsSlo(const Cell &c)
{
    const double p99Ns =
        static_cast<double>(nearestRank(c.acquireLat, 0.99)) / 1000.0;
    return p99Ns <= kSloP99Ns
           && static_cast<double>(c.late + c.dropped)
                  <= kSloMissFrac * static_cast<double>(c.offered);
}

std::string
rateName(double rate)
{
    std::ostringstream os;
    os << "r" << rate;
    return os.str();
}

Cell
runRate(RunCtx &ctx, Iteration &it, double rate, const std::string &name)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 4, 15);
    cfg.seed = ctx.seed;

    load::LoadSpec spec;
    spec.kind = load::ArrivalKind::Poisson;
    spec.ratePerUs = rate;
    spec.opsPerCore = std::max(
        17u, static_cast<unsigned>(kOpenOpsPerCore * ctx.scale));
    spec.window = 4;
    spec.numLocks = 16;
    spec.policy = load::OverloadPolicy::Queue;
    spec.seed = ctx.seed;

    Stopwatch sw;
    load::ArrivalSchedule sched;
    {
        ScopedSpan s(*ctx.tracer, "load.schedule", ctx.nextCellId);
        sched = load::buildArrivalSchedule(spec, cfg.totalClientCores());
    }
    it.extraSetup += sw.lap();

    Cell c = simulate(ctx, name, cfg, [&](NdpSystem &sys, Hooks &) {
        auto w = std::make_shared<load::OpenLoopWorkload>(sys, spec, sched);
        const std::uint64_t offered = sched.totalArrivals();
        return Finisher([w, offered, rate](Cell &c) {
            const load::LoadCounters t = w->totals();
            c.ratePerUs = rate;
            c.offered = offered;
            c.late = t.queued;
            c.lateTicks = t.queueDelayTicks;
            c.dropped = t.dropped;
            c.ops = t.issued;
            c.attempted = offered;
            c.failed = t.dropped;
            if (t.issued + t.dropped != offered) {
                c.errors.push_back(
                    c.name + ": issued " + std::to_string(t.issued)
                    + " + dropped " + std::to_string(t.dropped)
                    + " != offered " + std::to_string(offered));
            }
        });
    });
    return c;
}

Iteration
runLockOpenLoop(RunCtx &ctx)
{
    Iteration it;
    for (double rate : kRates)
        it.cells.push_back(runRate(ctx, it, rate, rateName(rate)));

    // Max-rate search over the probe below: a rate already run is reused
    // instead of re-simulated, a new one runs as a helper cell, and a
    // cell missing the stricter SLO (late arrivals count) reads as an
    // infinite p99.
    unsigned probes = 0;
    auto probe = [&](double rate) {
        auto same = std::find_if(
            it.cells.begin(), it.cells.end(), [rate](const Cell &c) {
                return std::abs(c.ratePerUs - rate) < 1e-9 * rate;
            });
        if (same == it.cells.end()) {
            Cell c = runRate(ctx, it, rate, "probe" + std::to_string(probes++));
            c.inMetrics = false;
            it.cells.push_back(std::move(c));
            same = std::prev(it.cells.end());
        }
        load::SloPoint p;
        p.ratePerUs = rate;
        p.dropped = same->dropped;
        p.p99Ns = meetsSlo(*same)
                      ? static_cast<double>(nearestRank(same->acquireLat, 0.99))
                            / 1000.0
                      : std::numeric_limits<double>::infinity();
        return p;
    };
    it.sim["sim_max_rate_per_us"] =
        load::findMaxSustainableRate(probe, kRates[0], std::end(kRates)[-1],
                                     kSloP99Ns, kSearchIters)
            .maxRatePerUs;
    return it;
}

// -- sharded_units -----------------------------------------------------

Iteration
runShardedUnits(RunCtx &ctx)
{
    Iteration it;
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 16, 15);
    cfg.seed = ctx.seed;
    cfg.simShards = 4;
    const harness::DsParams p =
        harness::dsDefaults(harness::DsKind::SkipList, kShardScale * ctx.scale);
    auto install = [&p](NdpSystem &sys, Hooks &) {
        return installStructure(sys, harness::DsKind::SkipList, p);
    };

    Cell sharded = simulate(ctx, "shards4", cfg, install);
    if (sharded.shards != 4) {
        sharded.errors.push_back("sharded run used "
                                 + std::to_string(sharded.shards)
                                 + " shards, expected 4");
        sharded.failed = sharded.ops;
    }
    if (ctx.reference) {
        cfg.simShards = 1;
        Cell ref = simulate(ctx, "shards1", cfg, install);
        ref.inMetrics = false;
        if (simFingerprint(ref) != simFingerprint(sharded)) {
            sharded.errors.push_back(
                "4-shard run is not bit-identical to the 1-shard run");
            sharded.failed = sharded.ops;
        }
        it.cells.push_back(std::move(sharded));
        it.cells.push_back(std::move(ref));
    } else {
        it.cells.push_back(std::move(sharded));
    }
    return it;
}

// -- trace_replay ------------------------------------------------------

Iteration
runTraceReplay(RunCtx &ctx)
{
    Iteration it;
    Tracer &tr = *ctx.tracer;
    std::uint64_t records = 0, bytes = 0, encodeNs = 0, decodeNs = 0;
    std::uint64_t findings = 0;

    for (trace::ScenarioSpec spec :
         trace::benchScenarioSpecs(kTraceScale * ctx.scale)) {
        spec.seed = ctx.seed;
        const std::string family = trace::scenarioFamilyName(spec.family);
        // Fresh names, unlinked right after use: the page cache never
        // writes them back, so no iteration stalls on disk I/O.
        const std::string stem = ctx.scratch + "/" + family + "-"
                                 + std::to_string(ctx.iteration);
        const std::string path = stem + ".trc";
        const std::string capPath = stem + "-capture.trc";

        // Input: generate, encode, decode (all set-up).
        Stopwatch sw;
        trace::Trace generated;
        {
            ScopedSpan s(tr, "trace.generate", ctx.nextCellId);
            generated = trace::ScenarioGenerator(spec).generate();
        }
        it.extraSetup += sw.lap();
        {
            ScopedSpan s(tr, "trace.encode", ctx.nextCellId);
            trace::writeTraceFile(generated, path);
        }
        const HostTime encode = sw.lap();
        trace::Trace decoded;
        std::array<std::uint64_t, kNumSyncOpKinds> fileCounts{};
        {
            ScopedSpan s(tr, "trace.decode", ctx.nextCellId);
            trace::MappedTraceReader reader(path);
            fileCounts = reader.validateAll();
            decoded = reader.materialize();
            bytes += reader.fileBytes();
        }
        const HostTime decode = sw.lap();
        std::filesystem::remove(path);
        it.extraSetup += encode;
        it.extraSetup += decode;
        encodeNs += encode.wallNs;
        decodeNs += decode.wallNs;
        records += generated.records.size();

        const auto want = generated.opCounts();
        if (!(decoded == generated) || fileCounts != want)
            it.errors.push_back(family + ": decoded trace differs from "
                                         "the generated one");

        SystemConfig cfg = trace::replayConfig(decoded, Scheme::Central);
        cfg.seed = ctx.seed;
        cfg.tracePath = capPath;
        Cell c = simulate(ctx, family, cfg, [&](NdpSystem &sys, Hooks &h) {
            auto rep = std::make_shared<trace::Replayer>(decoded);
            auto &an = h.own<analysis::LiveAnalyzer>(cfg);
            h.attach(sys, an, Hooks::Analysis, true);
            rep->install(sys);
            return Finisher([rep, &an, &findings, &decoded](Cell &c) {
                const std::uint64_t n = decoded.records.size();
                c.ops = rep->opsReplayed();
                c.attempted = n;
                c.failed = n > c.ops ? n - c.ops : 0;
                const std::size_t f = an.finish().findings.size();
                findings += f;
                if (f != 0)
                    c.errors.push_back(c.name + ": analyzer reported "
                                       + std::to_string(f) + " findings");
            });
        });

        // The replay and the decoded capture must both reproduce the
        // trace's per-OpKind counts.
        std::array<std::uint64_t, kNumSyncOpKinds> capCounts{};
        {
            ScopedSpan s(tr, "trace.decode", c.id);
            capCounts = trace::MappedTraceReader(capPath).validateAll();
        }
        std::filesystem::remove(capPath);
        if (c.kindCount != want || capCounts != want) {
            c.errors.push_back(c.name + ": per-OpKind counts not "
                                        "reproduced by replay/capture");
            c.failed = c.attempted;
        }
        it.cells.push_back(std::move(c));
    }
    const double recs = static_cast<double>(std::max<std::uint64_t>(1, records));
    it.sim["trace.bytes_per_record"] = static_cast<double>(bytes) / recs;
    it.sim["analysis.findings"] = static_cast<double>(findings);
    it.host["trace.encode_ns_per_record"] =
        static_cast<double>(encodeNs) / recs;
    it.host["trace.decode_ns_per_record"] =
        static_cast<double>(decodeNs) / recs;
    return it;
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {
        {"ds_closed", runDsClosed},
        {"lock_openloop", runLockOpenLoop},
        {"sharded_units", runShardedUnits},
        {"trace_replay", runTraceReplay},
    };
    return all;
}

} // namespace perfbench
