#include "harness/report.hh"

#include <algorithm>
#include <array>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>

#include "common/log.hh"
#include "common/units.hh"
#include "harness/json.hh"
#include "harness/table.hh"
#include "sync/opcodes.hh"

namespace syncron::harness {

namespace {

/** Every spec simulated in this process, with its output. */
std::vector<std::pair<CellSpec, RunOutput>> memo;

/** The memoized output of @p spec, or nullptr. */
const RunOutput *
memoized(const CellSpec &spec)
{
    for (const auto &[simulated, out] : memo) {
        if (simulated == spec)
            return &out;
    }
    return nullptr;
}

/** Nanoseconds since @p start. */
std::uint64_t
nsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/** Writes one config record of the JSON "configs" array. */
void
writeConfig(JsonWriter &j, const std::string &label, const RunOutput &out)
{
    j.beginObject();
    j.field("label", label);
    j.field("simTicks", out.time);
    j.field("ops", out.ops);
    j.field("opsPerMs", out.opsPerMs());
    j.field("hostMs", static_cast<double>(out.hostNs) * 1e-6);
    j.field("events", out.hostEvents);
    j.field("eventsPerSec", out.hostEventsPerSec());
    j.field("windows", out.hostWindows);
    j.field("heapEvents", out.hostHeapEvents);
    if (out.totalReqs > 0)
        j.field("overflowFrac", out.overflowFrac());
    if (out.offeredOps > 0) {
        j.key("load");
        j.beginObject()
            .field("ratePerUs", out.offeredRatePerUs)
            .field("offered", out.offeredOps)
            .field("issued", out.issuedOps)
            .field("dropped", out.droppedOps)
            .field("queued", out.queuedOps)
            .field("queueDelayTicks", out.queueDelayTicks)
            .endObject();
    }
    if (out.stats.pmWrites > 0) {
        j.field("pmWrites", out.stats.pmWrites);
        j.field("pmBitsWritten", out.stats.pmBitsWritten);
        j.field("pmFlushes", out.stats.pmFlushes);
    }

    // Per-OpKind latency histograms (log2 ns buckets, trailing zeros
    // trimmed), only for kinds the run actually exercised.
    bool anyLatency = false;
    for (const SyncOpLatency &l : out.stats.syncLatency)
        anyLatency = anyLatency || l.count > 0;
    if (anyLatency) {
        j.key("syncLatency");
        j.beginArray();
        for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
            const SyncOpLatency &l = out.stats.syncLatency[k];
            if (l.count == 0)
                continue;
            j.beginObject();
            j.field("op", sync::opKindName(static_cast<sync::OpKind>(k)));
            j.field("count", l.count);
            j.field("avgTicks", l.avgTicks());
            j.field("minTicks", l.minTicks);
            j.field("maxTicks", l.maxTicks);
            // Tail percentiles in ns (log-interpolated): the values
            // perf_trend.py's p99 gate compares across commits.
            j.field("p50Ns", l.percentileTicks(0.50)
                                 / static_cast<double>(kTicksPerNs));
            j.field("p99Ns", l.percentileTicks(0.99)
                                 / static_cast<double>(kTicksPerNs));
            j.field("p999Ns", l.percentileTicks(0.999)
                                  / static_cast<double>(kTicksPerNs));
            j.key("histLog2Ticks");
            j.beginArray();
            unsigned last = 0;
            for (unsigned b = 0; b < kSyncLatencyBuckets; ++b) {
                if (l.hist[b] != 0)
                    last = b + 1;
            }
            for (unsigned b = 0; b < last; ++b)
                j.value(l.hist[b]);
            j.endArray();
            j.endObject();
        }
        j.endArray();
    }
    j.endObject();
}

/** Prints @p e's message unless SYNCRON_FATAL/PANIC already did. */
void
printUnlessReported(const std::exception &e)
{
    const std::string what = e.what();
    if (what.rfind("fatal: ", 0) != 0 && what.rfind("panic: ", 0) != 0)
        std::cerr << "error: " << what << "\n";
}

/** argv[0] without its directory and "bench_" prefix. */
std::string
programName(int argc, char **argv)
{
    std::string name = argc > 0 ? argv[0] : "bench";
    name = name.substr(name.find_last_of('/') + 1);
    if (name.rfind("bench_", 0) == 0)
        name = name.substr(6);
    return name;
}

} // namespace

std::vector<BenchEntry> &
registeredBenches()
{
    static std::vector<BenchEntry> benches;
    return benches;
}

BenchRegistration::BenchRegistration(const char *name, BenchBody body)
{
    registeredBenches().push_back(BenchEntry{name, body});
}

void
Bench::cell(std::string label, CellSpec spec)
{
    queue_.push_back(Cell{std::move(label), std::move(spec)});
}

std::vector<RunOutput>
Bench::run()
{
    const std::vector<Cell> cells = std::exchange(queue_, {});

    // The specs new to this process, each once, listed with its first
    // cell in submission order.
    std::vector<CellSpec> specs;
    std::vector<std::size_t> specCell;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &spec = cells[i].spec;
        if (memoized(spec) == nullptr
            && std::find(specs.begin(), specs.end(), spec) == specs.end()) {
            specs.push_back(spec);
            specCell.push_back(i);
        }
    }

    std::vector<RunOutput> outs;
    std::size_t failed = 0;
    try {
        outs = runCells(specs, opts_.jobs, &failed);
    } catch (...) {
        failedCell_ = cells[specCell[failed]].label;
        throw;
    }
    simulations_ += outs.size();
    for (std::size_t k = 0; k < specs.size(); ++k) {
        simulatedEvents_ += outs[k].hostEvents;
        memo.emplace_back(std::move(specs[k]), std::move(outs[k]));
    }

    std::vector<RunOutput> results;
    for (const Cell &c : cells) {
        results.push_back(*memoized(c.spec));
        records_.push_back(Record{c.label, results.back()});
    }
    return results;
}

void
Bench::metric(std::string label, double value)
{
    metrics_.emplace_back(std::move(label), value);
}

void
Bench::finish(std::ostream &os)
{
    // -- Aggregated per-OpKind latency distribution over all configs
    std::array<SyncOpLatency, kNumSyncOpKinds> agg{};
    for (const Record &r : records_) {
        for (unsigned k = 0; k < kNumSyncOpKinds; ++k)
            agg[k] += r.out.stats.syncLatency[k];
    }
    std::uint64_t total = 0;
    for (const SyncOpLatency &l : agg)
        total += l.count;
    if (total > 0) {
        TablePrinter t("sync-op latency, aggregated over "
                           + std::to_string(records_.size())
                           + " configs",
                       {"op", "count", "avg[ns]", "min[ns]", "max[ns]"});
        for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
            if (agg[k].count == 0)
                continue;
            t.addRow({sync::opKindName(static_cast<sync::OpKind>(k)),
                      std::to_string(agg[k].count),
                      fmt(agg[k].avgTicks()
                              / static_cast<double>(kTicksPerNs),
                          1),
                      fmt(ticksToNs(agg[k].minTicks), 1),
                      fmt(ticksToNs(agg[k].maxTicks), 1)});
        }
        t.print(os);
    }

    printSummary(os, "");
}

void
Bench::printSummary(std::ostream &os, const std::string &what) const
{
    const double wallSec = static_cast<double>(nsSince(start_)) * 1e-9;
    os << "harness: " << what << records_.size() << " configs, "
       << simulations_ << " simulated, jobs=" << opts_.jobs << ", host "
       << fmt(wallSec, 2) << " s";
    if (simulatedEvents_ > 0 && wallSec > 0.0) {
        os << ", " << simulatedEvents_ << " kernel events ("
           << fmt(static_cast<double>(simulatedEvents_) / wallSec / 1e6, 2)
           << " M events/s)";
    }
    os << "\n";
}

void
Bench::writeJson() const
{
    std::ofstream f(opts_.json);
    if (!f)
        SYNCRON_FATAL("cannot write --json file '" << opts_.json << "'");
    const std::uint64_t wallNs = nsSince(start_);
    const double wallSec = static_cast<double>(wallNs) * 1e-9;

    JsonWriter j(f);
    j.beginObject();
    j.field("bench", name_);
#ifdef SYNCRON_SANITIZER
    // Stamped by -DSYNCRON_SANITIZE=...; perf_trend.py refuses such
    // records — instrumented numbers are not performance numbers.
    j.field("sanitizer", SYNCRON_SANITIZER);
#endif
    j.key("options");
    j.beginObject()
        .field("scale", opts_.scale)
        .field("jobs", opts_.jobs)
        .field("backend", opts_.backend)
        .endObject();
    j.key("host");
    j.beginObject()
        .field("wallMs", static_cast<double>(wallNs) * 1e-6)
        .field("events", simulatedEvents_)
        .field("eventsPerSec",
               wallSec > 0.0 ? static_cast<double>(simulatedEvents_) / wallSec
                             : 0.0)
        .field("simulations", simulations_)
        .endObject();
    j.key("configs");
    j.beginArray();
    for (const Record &r : records_)
        writeConfig(j, r.label, r.out);
    j.endArray();
    if (!metrics_.empty()) {
        j.key("metrics");
        j.beginObject();
        for (const auto &[label, value] : metrics_)
            j.field(label, value);
        j.endObject();
    }
    j.endObject();
    f << "\n";
}

int
benchMain(std::vector<BenchEntry> benches, int argc, char **argv)
{
    std::sort(benches.begin(), benches.end(),
              [](const BenchEntry &a, const BenchEntry &b) {
                  return a.name < b.name;
              });
    auto binaryName = [&] {
        return benches.size() == 1 ? benches.front().name
                                   : programName(argc, argv);
    };
    std::string name = binaryName();

    BenchOptions opts;
    try {
        opts = BenchOptions::parse(argc, argv);
    } catch (const std::exception &e) {
        printUnlessReported(e);
        std::cerr << "error: " << name << ": bad arguments\n";
        return 2;
    }

    // --bench keeps the named benches, still in name order.
    for (const std::string &want : opts.benches) {
        if (std::none_of(benches.begin(), benches.end(),
                         [&](const BenchEntry &b) { return b.name == want; })) {
            std::cerr << "error: unknown --bench '" << want << "' (known:";
            for (const BenchEntry &b : benches)
                std::cerr << ' ' << b.name;
            std::cerr << ")\n";
            return 2;
        }
    }
    if (!opts.benches.empty()) {
        std::erase_if(benches, [&](const BenchEntry &b) {
            return std::count(opts.benches.begin(), opts.benches.end(),
                              b.name)
                   == 0;
        });
        name = binaryName();
    }
    const bool several = benches.size() > 1;

    // The binary's record: every bench's cells, "<bench>/"-prefixed
    // when there are several.
    Bench binary(name, opts);
    std::unique_ptr<Bench> bench;
    try {
        int rc = 0;
        for (const BenchEntry &entry : benches) {
            bench.reset(new Bench(entry.name, opts));
            rc = std::max(rc, entry.body(*bench));
            // A bench with nothing to report stays silent, unless it is
            // the binary's only bench and --json asks for its record.
            if (!bench->records_.empty() || !bench->metrics_.empty()
                || (!several && !opts.json.empty()))
                bench->finish(std::cout);

            const std::string prefix = several ? entry.name + "/" : "";
            for (const Bench::Record &r : bench->records_)
                binary.records_.push_back({prefix + r.label, r.out});
            for (const auto &[label, value] : bench->metrics_)
                binary.metrics_.emplace_back(prefix + label, value);
            binary.simulations_ += bench->simulations_;
            binary.simulatedEvents_ += bench->simulatedEvents_;
        }
        bench.reset();
        if (several) {
            binary.printSummary(
                std::cout, std::to_string(benches.size()) + " benches, ");
        }
        if (!opts.json.empty()) {
            binary.writeJson();
            std::cout << "wrote " << opts.json << "\n";
        }
        return rc;
    } catch (const std::exception &e) {
        printUnlessReported(e);
    } catch (...) {
        std::cerr << "error: unknown exception\n";
    }
    std::cerr << "error: " << name << " failed";
    if (bench && !bench->failedCell_.empty()) {
        std::cerr << " in cell '" << (several ? bench->name_ + "/" : "")
                  << bench->failedCell_ << "'";
    }
    std::cerr << " (--backend="
              << (opts.backend.empty() ? "default" : opts.backend)
              << " --scale=" << opts.scale
              << " --sim-shards=" << opts.simShards << ")\n";
    return 2;
}

} // namespace syncron::harness
