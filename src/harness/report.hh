/**
 * @file
 * The one bench driver. A bench TU defines a body run(Bench &) and
 * registers it with SYNCRON_BENCH("fig11_data_structures", run). The
 * shared main() (bench/main/main.cc) passes every bench linked into the
 * binary to benchMain, which parses the BenchOptions once and runs the
 * bodies in name order (--bench=<name>[,...] keeps only the named
 * ones). A body queues labeled CellSpec cells with Bench::cell() and
 * runs them with Bench::run(); a spec already simulated in this process
 * is served from a process-wide memo. Each bench then prints its
 * aggregated per-OpKind latency table and a "harness:" line;
 * --json=<path> writes one BENCH_*.json record for the binary, whose
 * labels and metric names are "<bench>/"-prefixed when it runs several.
 *
 * Exit codes: 0 ok; 1 when a body returned 1 (its own gate; the other
 * benches still run); 2 on an error, including an unknown --bench name
 * (one stderr line listing the known ones). An exception escaping the
 * parse or a body stops the binary with one stderr line naming it, the
 * first failing cell (the same cell for any --jobs) and --backend/
 * --scale/--sim-shards. SYNCRON_FATAL/PANIC messages print once, when
 * thrown.
 */

#ifndef SYNCRON_HARNESS_REPORT_HH
#define SYNCRON_HARNESS_REPORT_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"

namespace syncron::harness {

class Bench;

/** A bench's body; returns its exit code (0, or 1 for a gate). */
using BenchBody = int (*)(Bench &);

/** One bench linked into a binary. */
struct BenchEntry
{
    std::string name;
    BenchBody body;
};

/** The benches SYNCRON_BENCH registered in this binary. */
std::vector<BenchEntry> &registeredBenches();

/** Adds a bench to registeredBenches() (see SYNCRON_BENCH). */
struct BenchRegistration
{
    BenchRegistration(const char *name, BenchBody body);
};

/** Registers @p body as bench @p name of whatever binary links it. */
#define SYNCRON_BENCH(name, body)                                           \
    static const ::syncron::harness::BenchRegistration                      \
        SYNCRON_BENCH_CAT(syncronBench_, __LINE__)(name, body);
#define SYNCRON_BENCH_CAT(a, b) SYNCRON_BENCH_CAT2(a, b)
#define SYNCRON_BENCH_CAT2(a, b) a##b

/**
 * Runs @p benches in name order under one set of options parsed from
 * argv; returns the process exit code (0, 1, or 2; see the file
 * comment). A binary running one bench reports under that bench's
 * name; one running several reports under its program name (argv[0]
 * without directory and "bench_" prefix).
 */
int benchMain(std::vector<BenchEntry> benches, int argc, char **argv);

/** A bench body's view of the driver: the options and a labeled grid. */
class Bench
{
  public:
    const BenchOptions &opts() const { return opts_; }

    /** Queues one grid cell; its result is reported under @p label. */
    void cell(std::string label, CellSpec spec);

    /**
     * Runs the specs of the queued cells not yet in the process memo,
     * each once, through runCells() on --jobs workers. Reports each
     * cell's result under its label and returns the results in
     * submission order. Empties the queue. When a cell throws, the
     * first failing cell is reported.
     */
    std::vector<RunOutput> run();

    /** Adds a named derived metric (e.g. an overhead percentage); lands
     *  in the JSON record's "metrics" object. */
    void metric(std::string label, double value);

  private:
    friend int benchMain(std::vector<BenchEntry>, int, char **);

    struct Cell
    {
        std::string label;
        CellSpec spec;
    };

    struct Record
    {
        std::string label;
        RunOutput out;
    };

    Bench(std::string name, const BenchOptions &opts)
        : name_(std::move(name)), opts_(opts)
    {}

    /** Prints the latency table and host summary to @p os. */
    void finish(std::ostream &os);

    /** Prints the "harness:" host summary, counts after @p what. */
    void printSummary(std::ostream &os, const std::string &what) const;

    /** Writes the --json record of every cell and metric. */
    void writeJson() const;

    std::string name_;
    const BenchOptions &opts_;
    std::vector<Cell> queue_;
    std::vector<Record> records_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::size_t simulations_ = 0;     ///< cells not served by the memo
    std::uint64_t simulatedEvents_ = 0; ///< their kernel events
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    std::string failedCell_; ///< first failing cell's label, if any
};

} // namespace syncron::harness

#endif // SYNCRON_HARNESS_REPORT_HH
