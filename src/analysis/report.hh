/**
 * @file
 * Structured findings of the sync-correctness analyses (src/analysis/).
 *
 * Every analyzer reports through an AnalysisReport: a list of Finding
 * records, each carrying the defect kind, a human-readable message, the
 * (core, primitive, tick) triple identifying the offending operation,
 * and a witness path — the sequence of operations that substantiates
 * the finding (e.g. the edges of a lock-order cycle, or the two
 * conflicting accesses of a race). Reports print human-readably and
 * serialize as JSON through the existing harness::JsonWriter.
 *
 * Findings are fatal by default in tests and under --analyze: a clean
 * run is the invariant (see ROADMAP "analysis-clean").
 */

#ifndef SYNCRON_ANALYSIS_REPORT_HH
#define SYNCRON_ANALYSIS_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace syncron::analysis {

/** Defect classes the analyzers can report. */
enum class FindingKind
{
    EmptyLocksetRace,      ///< shared write with empty candidate lockset
    LockOrderCycle,        ///< cycle in the held-before graph
    ReleaseWithoutAcquire, ///< lock released by a non-owner
    DoubleRelease,         ///< lock released twice without reacquiring
    BarrierArityMismatch,  ///< participants vs machine shape / table
    SemaphoreUnderflow,    ///< waits granted beyond initial + posts
    PendingOpLeak,         ///< operations issued but never completed
    LockHeldAtTeardown,    ///< lock still owned when the run finished
    StaleGenerationUse,    ///< pre-crash primitive used after recovery
                           ///< without being re-minted
    DoubleGrant,           ///< live grant of a lock another core owns
    BarrierNotConserved,   ///< barrier arrivals two rounds apart
};

/** Printable name for @p kind (stable, used in JSON). */
const char *findingKindName(FindingKind kind);

/** Sentinel core id for findings not attributable to one core. */
inline constexpr std::uint32_t kNoCore = ~std::uint32_t{0};

/** One step of a finding's witness path. */
struct WitnessStep
{
    std::uint32_t core = kNoCore; ///< dense client-core index
    std::uint64_t prim = 0;       ///< primitive id (or shadow address)
    Tick tick = 0;
    std::string note; ///< what happened at this step
};

/** One defect, with enough structure to act on it mechanically. */
struct Finding
{
    FindingKind kind = FindingKind::EmptyLocksetRace;
    std::string message;
    std::uint32_t core = kNoCore; ///< dense client-core index
    std::uint64_t prim = 0;       ///< primitive id (or shadow address)
    Tick tick = 0;                ///< tick of the offending operation
    std::vector<WitnessStep> witness;
};

/** The result of one analysis pass over an operation stream. */
struct AnalysisReport
{
    std::vector<Finding> findings;

    /** True when no analyzer reported anything. */
    bool clean() const { return findings.empty(); }

    /** Human-readable summary, one block per finding. */
    void print(std::ostream &os) const;

    /** JSON serialization ({"clean":..., "findings":[...]}). */
    void writeJson(std::ostream &os) const;
};

} // namespace syncron::analysis

#endif // SYNCRON_ANALYSIS_REPORT_HH
