/**
 * @file
 * The persisted image: what survives a crash.
 *
 * The durability subsystem's write-ahead log is a logical
 * completion-record stream (the same trace::Trace the trace subsystem
 * captures — recovery is a trace consumer), plus the header state
 * needed to interpret it: persist mode and the crash tick. `log` holds
 * the machine shape, the primitive table and the *durable* prefix of
 * the WAL — everything flushed to the PM durability domain before the
 * crash; `appended` counts every record the manager saw, so `appended
 * - durable()` is the staged tail an epoch-mode crash lost.
 *
 * On-disk container (v2): magic "SYNCDUR\0", varint version, then
 * varint mode, epochOps, crashTick and appended, then one complete
 * `SYNCTRC` container (trace/format.hh) holding `log`. The records are
 * written by trace::TraceWriter and decoded by trace/codec.hh, so an
 * image accepts and rejects exactly the record streams a trace file
 * does. Readers also reject unknown versions (v1 used its own record
 * layout), `appended` below the durable record count, and trailing
 * bytes.
 */

#ifndef SYNCRON_DURABILITY_IMAGE_HH
#define SYNCRON_DURABILITY_IMAGE_HH

#include <cstdint>
#include <iosfwd>

#include "common/types.hh"
#include "durability/pm_model.hh"
#include "trace/format.hh"

namespace syncron::durability {

/** On-disk magic: "SYNCDUR\0". */
inline constexpr char kImageMagic[8] = {'S', 'Y', 'N', 'C',
                                        'D', 'U', 'R', '\0'};

/** Current persisted-image layout version. */
inline constexpr std::uint32_t kImageVersion = 2;

/** Snapshot of the PM durability domain at a crash (or clean end). */
struct PersistedImage
{
    PersistMode mode = PersistMode::Off;
    std::uint32_t epochOps = 0; ///< flush interval (Epoch mode)
    Tick crashTick = 0;         ///< 0 == clean shutdown
    std::uint64_t appended = 0; ///< WAL records appended (>= durable)

    /**
     * Machine shape, primitive table (persisted eagerly at mint in
     * every mode) and the durable WAL prefix, in completion order.
     */
    trace::Trace log;

    std::uint64_t durable() const { return log.records.size(); }

    friend bool operator==(const PersistedImage &,
                           const PersistedImage &) = default;
};

/** Serializes @p img; fatal()s on stream errors. */
void writeImage(std::ostream &os, const PersistedImage &img);

/** Parses an image; fatal()s on any corruption (see file comment). */
PersistedImage readImage(std::istream &is);

} // namespace syncron::durability

#endif // SYNCRON_DURABILITY_IMAGE_HH
