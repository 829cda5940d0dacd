/**
 * @file
 * The synchronization-operation trace format — the first subsystem whose
 * input is data rather than code.
 *
 * A Trace is a machine-shape header (NDP units, client cores per unit),
 * a table of the synchronization primitives the traced run used (kind,
 * home unit, creation parameter), and a time-ordered stream of operation
 * records `{issue tick, completion tick, client core, OpKind, primitive
 * id, associated primitive}`. Primitive ids are dense indices into the
 * table, not simulated addresses, so a trace replays on a freshly built
 * system whose allocator hands out different lines.
 *
 * On disk the container is a compact varint encoding (decided contract,
 * see ROADMAP):
 *
 *   magic "SYNCTRC\0" | varint version (= 2)
 *   varint numUnits | varint clientCoresPerUnit
 *   varint primitive count | per primitive: kind, home, param, scope
 *   varint record count   | per record:
 *       zigzag(issue delta vs previous record) | latency (completed -
 *       issued) | core | OpKind | primitive id
 *       | associated lock (cond_wait records only)
 *
 * All multi-byte fields are LEB128 varints; issue ticks are
 * delta-encoded against the previous record (zigzag, so capture order —
 * completion order — need not be issue-ordered). TraceWriter and
 * MappedTraceReader (trace/mmap_reader.hh) guarantee a lossless round
 * trip. Every reader decodes through trace/codec.hh and rejects bad
 * magic, unknown versions, truncation, trailing garbage, fields that
 * overflow their types, and records referencing out-of-range
 * primitives or cores. The `SYNCDUR` persisted image
 * (durability/image.hh) embeds one complete container of this layout.
 *
 * v1 -> v2: v1 wrote an associated-primitive varint on EVERY record
 * (always 0 outside cond_wait) and did not require writers to populate
 * it, so offline consumers could not rely on the field. v2 makes the
 * associated lock a mandatory, writer-validated field of cond_wait
 * records and drops the dead varint everywhere else — the deadlock
 * analyzer (analysis::analyzeTrace) depends on it. Readers reject v1
 * traces; recapture them with this build.
 */

#ifndef SYNCRON_TRACE_FORMAT_HH
#define SYNCRON_TRACE_FORMAT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sync/opcodes.hh"
#include "sync/request.hh"

namespace syncron::trace {

/** Trace container version written/accepted by this build. */
inline constexpr std::uint64_t kTraceVersion = 2;

/** 8-byte container magic ("SYNCTRC\0"). */
inline constexpr std::array<char, 8> kTraceMagic = {'S', 'Y', 'N', 'C',
                                                    'T', 'R', 'C', '\0'};

/** Kind of a traced synchronization primitive. */
enum class PrimKind : std::uint8_t
{
    Lock,
    Barrier,
    Semaphore,
    CondVar,
};

/** Printable name for @p kind. */
const char *primKindName(PrimKind kind);

/** Kind of primitive @p kind operates on (every OpKind has one). */
PrimKind primKindOf(sync::OpKind kind);

/** One entry of the trace's primitive table. */
struct TracePrimitive
{
    PrimKind kind = PrimKind::Lock;
    UnitId home = 0; ///< NDP unit the primitive was homed in
    /** Barrier participant count / semaphore initial resources. */
    std::uint32_t param = 0;
    sync::BarrierScope scope = sync::BarrierScope::AcrossUnits;

    friend bool operator==(const TracePrimitive &,
                           const TracePrimitive &) = default;
};

/** One captured (or synthesized) synchronization operation. */
struct TraceRecord
{
    Tick issued = 0;    ///< tick the request was issued to the backend
    Tick completed = 0; ///< tick the core observed completion
    std::uint32_t core = 0; ///< dense client-core index
    sync::OpKind kind = sync::OpKind::LockAcquire;
    std::uint32_t prim = 0; ///< index into Trace::primitives
    /** CondWait's associated lock (primitive id); 0 otherwise. */
    std::uint32_t assocPrim = 0;

    Tick latency() const { return completed - issued; }

    friend bool operator==(const TraceRecord &,
                           const TraceRecord &) = default;
};

/** A complete synchronization-operation trace. */
struct Trace
{
    std::uint32_t numUnits = 0;
    std::uint32_t clientCoresPerUnit = 0;
    std::vector<TracePrimitive> primitives;
    std::vector<TraceRecord> records;

    /** Client cores of the traced machine (record::core < this). */
    std::uint32_t
    numClientCores() const
    {
        return numUnits * clientCoresPerUnit;
    }

    /** Operation count per sync::OpKind over the whole stream. */
    std::array<std::uint64_t, kNumSyncOpKinds> opCounts() const;

    /**
     * Share of lock operations going to the most-operated-on lock —
     * the contention-skew statistic the Zipfian scenario tests assert
     * on. Returns 0 when the trace has no lock operations.
     */
    double hottestLockShare() const;

    friend bool operator==(const Trace &, const Trace &) = default;
};

/** Serializes traces into the varint container format. */
class TraceWriter
{
  public:
    /** Writes to @p os; the stream must outlive the writer. */
    explicit TraceWriter(std::ostream &os) : os_(os) {}

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Emits one complete trace; fatal() on stream errors. */
    void write(const Trace &trace);

  private:
    std::ostream &os_;
};

/** Writes @p trace to @p path; fatal() when the file cannot be written. */
void writeTraceFile(const Trace &trace, const std::string &path);

/** Reads a trace from @p path; fatal() on IO or format errors. */
Trace readTraceFile(const std::string &path);

} // namespace syncron::trace

#endif // SYNCRON_TRACE_FORMAT_HH
