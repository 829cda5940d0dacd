#include "harness/report.hh"

#include <array>
#include <exception>
#include <fstream>
#include <iostream>

#include "common/log.hh"
#include "common/units.hh"
#include "harness/grid.hh"
#include "harness/json.hh"
#include "harness/table.hh"
#include "sync/opcodes.hh"

namespace syncron::harness {

BenchReport::BenchReport(std::string name, const BenchOptions &opts)
    : name_(std::move(name)), opts_(opts)
{}

void
BenchReport::add(std::string label, const RunOutput &out)
{
    records_.push_back(Record{std::move(label), out});
}

void
BenchReport::addMetric(std::string label, double value)
{
    metrics_.emplace_back(std::move(label), value);
}

void
BenchReport::finish(std::ostream &os)
{
    if (records_.empty() && metrics_.empty() && opts_.json.empty())
        return;
    wallNs_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());

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

    // -- Host-side perf summary
    std::uint64_t events = 0;
    for (const Record &r : records_)
        events += r.out.hostEvents;
    const double wallSec = static_cast<double>(wallNs_) * 1e-9;
    os << "harness: " << records_.size() << " configs, jobs="
       << opts_.jobs << ", host " << fmt(wallSec, 2) << " s";
    if (events > 0 && wallSec > 0.0) {
        os << ", " << events << " kernel events ("
           << fmt(static_cast<double>(events) / wallSec / 1e6, 2)
           << " M events/s)";
    }
    os << "\n";

    if (!opts_.json.empty()) {
        writeJson();
        os << "wrote " << opts_.json << "\n";
    }
}

void
BenchReport::writeJson() const
{
    std::ofstream f(opts_.json);
    if (!f)
        SYNCRON_FATAL("cannot write --json file '" << opts_.json << "'");

    std::uint64_t events = 0;
    for (const Record &r : records_)
        events += r.out.hostEvents;
    const double wallSec = static_cast<double>(wallNs_) * 1e-9;

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
        .field("wallMs", static_cast<double>(wallNs_) * 1e-6)
        .field("events", events)
        .field("eventsPerSec",
               wallSec > 0.0 ? static_cast<double>(events) / wallSec
                             : 0.0)
        .endObject();
    j.key("configs");
    j.beginArray();
    for (const Record &r : records_) {
        j.beginObject();
        j.field("label", r.label);
        j.field("simTicks", r.out.time);
        j.field("ops", r.out.ops);
        j.field("opsPerMs", r.out.opsPerMs());
        j.field("hostMs", static_cast<double>(r.out.hostNs) * 1e-6);
        j.field("events", r.out.hostEvents);
        j.field("eventsPerSec", r.out.hostEventsPerSec());
        j.field("windows", r.out.hostWindows);
        j.field("heapEvents", r.out.hostHeapEvents);
        if (r.out.totalReqs > 0)
            j.field("overflowFrac", r.out.overflowFrac());
        if (r.out.offeredOps > 0) {
            j.key("load");
            j.beginObject()
                .field("ratePerUs", r.out.offeredRatePerUs)
                .field("offered", r.out.offeredOps)
                .field("issued", r.out.issuedOps)
                .field("dropped", r.out.droppedOps)
                .field("queued", r.out.queuedOps)
                .field("queueDelayTicks", r.out.queueDelayTicks)
                .endObject();
        }
        if (r.out.stats.pmWrites > 0) {
            j.field("pmWrites", r.out.stats.pmWrites);
            j.field("pmBitsWritten", r.out.stats.pmBitsWritten);
            j.field("pmFlushes", r.out.stats.pmFlushes);
        }

        // Per-OpKind latency histograms (log2 ns buckets, trailing
        // zeros trimmed), only for kinds the run actually exercised.
        bool anyLatency = false;
        for (const SyncOpLatency &l : r.out.stats.syncLatency)
            anyLatency = anyLatency || l.count > 0;
        if (anyLatency) {
            j.key("syncLatency");
            j.beginArray();
            for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
                const SyncOpLatency &l = r.out.stats.syncLatency[k];
                if (l.count == 0)
                    continue;
                j.beginObject();
                j.field("op",
                        sync::opKindName(static_cast<sync::OpKind>(k)));
                j.field("count", l.count);
                j.field("avgTicks", l.avgTicks());
                j.field("minTicks", l.minTicks);
                j.field("maxTicks", l.maxTicks);
                // Tail percentiles in ns (log-interpolated): the
                // values perf_trend.py's p99 gate compares across
                // commits.
                j.field("p50Ns", l.percentileTicks(0.50)
                                     / static_cast<double>(kTicksPerNs));
                j.field("p99Ns", l.percentileTicks(0.99)
                                     / static_cast<double>(kTicksPerNs));
                j.field("p999Ns",
                        l.percentileTicks(0.999)
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

void
Bench::cell(std::string label, std::function<RunOutput()> task)
{
    labels_.push_back(std::move(label));
    tasks_.push_back(std::move(task));
}

std::vector<RunOutput>
Bench::run(unsigned jobs)
{
    std::vector<std::string> labels = std::exchange(labels_, {});
    std::vector<RunOutput> results;
    std::size_t failed = 0;
    try {
        results = runGrid(std::exchange(tasks_, {}),
                          jobs != 0 ? jobs : opts_.jobs, &failed);
    } catch (...) {
        failedCell_ = labels[failed];
        throw;
    }
    for (std::size_t i = 0; i < results.size(); ++i)
        report_.add(std::move(labels[i]), results[i]);
    return results;
}

void
Bench::metric(std::string label, double value)
{
    report_.addMetric(std::move(label), value);
}

namespace {

/** Prints @p e's message unless SYNCRON_FATAL/PANIC already did. */
void
printUnlessReported(const std::exception &e)
{
    const std::string what = e.what();
    if (what.rfind("fatal: ", 0) != 0 && what.rfind("panic: ", 0) != 0)
        std::cerr << "error: " << what << "\n";
}

} // namespace

int
benchMain(const char *name, int argc, char **argv, BenchBody body)
{
    BenchOptions opts;
    try {
        opts = BenchOptions::parse(argc, argv);
    } catch (const std::exception &e) {
        printUnlessReported(e);
        std::cerr << "error: " << name << ": bad arguments\n";
        return 2;
    }

    Bench bench(name, opts);
    try {
        const int rc = body(bench);
        bench.report_.finish(std::cout);
        return rc;
    } catch (const std::exception &e) {
        printUnlessReported(e);
    } catch (...) {
        std::cerr << "error: unknown exception\n";
    }
    std::cerr << "error: " << name << " failed";
    if (!bench.failedCell_.empty())
        std::cerr << " in cell '" << bench.failedCell_ << "'";
    std::cerr << " (--backend="
              << (opts.backend.empty() ? "default" : opts.backend)
              << " --scale=" << opts.scale
              << " --sim-shards=" << opts.simShards << ")\n";
    return 2;
}

} // namespace syncron::harness
