/**
 * @file
 * The one bench driver and its report. Every bench binary ends in
 *
 *     SYNCRON_BENCH_MAIN("fig11_data_structures", run)
 *
 * whose main() calls harness::benchMain. That parses the BenchOptions,
 * hands run(Bench &) a labeled grid (Bench::cell() queues a cell,
 * Bench::run() runs the queue), and returns run's exit code: 0 ok, 1
 * the bench's own gate failed. An exception escaping the parse or the
 * body (a SYNCRON_FATAL in a cell, a failed check) ends in one stderr
 * line naming the bench, the first failing cell in submission order
 * (the same cell for any --jobs) and --backend/--scale/--sim-shards,
 * and exit code 2. The message itself appears once: SYNCRON_FATAL and
 * SYNCRON_PANIC print when they throw.
 *
 * Every finished cell lands in the bench's BenchReport, which
 *
 *   - prints the aggregated per-OpKind synchronization-latency table
 *     (SystemStats::syncLatency surfaced on the terminal),
 *   - prints a host-side perf summary (kernel events/sec — the number
 *     the fast-kernel work optimizes), and
 *   - optionally (--json=<path>) writes a machine-readable BENCH_*.json
 *     record with per-config simulated results, host perf, and latency
 *     histograms, starting the perf trajectory across PRs.
 */

#ifndef SYNCRON_HARNESS_REPORT_HH
#define SYNCRON_HARNESS_REPORT_HH

#include <chrono>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"

namespace syncron::harness {

/** Collects labeled RunOutputs and renders the perf/latency epilogue. */
class BenchReport
{
  public:
    /** @p name is the bench identity recorded in the JSON ("fig11"). */
    BenchReport(std::string name, const BenchOptions &opts);

    /** Adds one completed grid cell. */
    void add(std::string label, const RunOutput &out);

    /** Adds a named derived metric (e.g. an overhead percentage); lands
     *  in the JSON record's "metrics" object. */
    void addMetric(std::string label, double value);

    /**
     * Prints the latency table and host perf summary to @p os and, when
     * --json was given, writes the JSON record. Call once, last. A
     * report with no cells and no metrics prints nothing unless --json
     * asks for its record.
     */
    void finish(std::ostream &os);

  private:
    struct Record
    {
        std::string label;
        RunOutput out;
    };

    void writeJson() const;

    std::string name_;
    const BenchOptions &opts_;
    std::vector<Record> records_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    std::uint64_t wallNs_ = 0; ///< set by finish()
};

class Bench;

/** A bench binary's body; returns its exit code (0, or 1 for a gate). */
using BenchBody = int (*)(Bench &);

/** Runs @p body as bench @p name; returns the process exit code. */
int benchMain(const char *name, int argc, char **argv, BenchBody body);

/** Defines a bench binary's main(): benchMain(@p name, ..., @p body). */
#define SYNCRON_BENCH_MAIN(name, body)                                      \
    int main(int argc, char **argv)                                         \
    {                                                                       \
        return ::syncron::harness::benchMain(name, argc, argv, body);       \
    }

/** A bench body's view of the driver: the options and a labeled grid. */
class Bench
{
  public:
    const BenchOptions &opts() const { return opts_; }

    /** Queues one grid cell; its result is reported under @p label. */
    void cell(std::string label, std::function<RunOutput()> task);

    /**
     * Runs the queued cells through runGrid() on --jobs workers (or
     * @p jobs when nonzero), reports each result under its cell's label
     * and returns the results in submission order. Empties the queue.
     */
    std::vector<RunOutput> run(unsigned jobs = 0);

    /** BenchReport::addMetric(). */
    void metric(std::string label, double value);

  private:
    friend int benchMain(const char *, int, char **, BenchBody);

    Bench(std::string name, const BenchOptions &opts)
        : opts_(opts), report_(std::move(name), opts_)
    {}

    const BenchOptions opts_;
    BenchReport report_;
    std::vector<std::string> labels_;
    std::vector<std::function<RunOutput()>> tasks_;
    std::string failedCell_; ///< first failing cell's label, if any
};

} // namespace syncron::harness

#endif // SYNCRON_HARNESS_REPORT_HH
