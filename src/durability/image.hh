/**
 * @file
 * The persisted image: what survives a crash.
 *
 * The durability subsystem's write-ahead log is a logical
 * completion-record stream (the same TraceRecord/TracePrimitive values
 * the trace subsystem captures — recovery is a trace consumer), plus
 * the header state needed to interpret it: machine shape, persist mode,
 * and the crash tick. `records` holds the *durable* prefix of the WAL —
 * everything flushed to the PM durability domain before the crash;
 * `appended` counts every record the manager saw, so `appended -
 * records.size()` is the staged tail an epoch-mode crash lost.
 *
 * On-disk container, versioned like the trace container ("SYNCTRC"):
 * magic "SYNCDUR\0", varint version, header fields, the primitive table
 * (trace/codec.hh's encoding, shared with SYNCTRC), then records keyed
 * by dense primitive ids, each with its absolute issue tick and an
 * always-present associated-primitive field. Readers reject unknown
 * versions, truncation, trailing bytes, out-of-range fields, and
 * dangling primitive references.
 */

#ifndef SYNCRON_DURABILITY_IMAGE_HH
#define SYNCRON_DURABILITY_IMAGE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "durability/pm_model.hh"
#include "trace/format.hh"

namespace syncron::durability {

/** On-disk magic: "SYNCDUR\0". */
inline constexpr char kImageMagic[8] = {'S', 'Y', 'N', 'C',
                                        'D', 'U', 'R', '\0'};

/** Current persisted-image layout version. */
inline constexpr std::uint32_t kImageVersion = 1;

/** Snapshot of the PM durability domain at a crash (or clean end). */
struct PersistedImage
{
    std::uint32_t numUnits = 0;
    std::uint32_t clientCoresPerUnit = 0;
    PersistMode mode = PersistMode::Off;
    std::uint32_t epochOps = 0; ///< flush interval (Epoch mode)
    Tick crashTick = 0;         ///< 0 == clean shutdown
    std::uint64_t appended = 0; ///< WAL records appended (>= durable)

    /** Primitive metadata; persisted eagerly at mint in every mode. */
    std::vector<trace::TracePrimitive> primitives;
    /** The durable WAL prefix, in completion order. */
    std::vector<trace::TraceRecord> records;

    std::uint64_t durable() const { return records.size(); }

    friend bool operator==(const PersistedImage &,
                           const PersistedImage &) = default;
};

/** Serializes @p img; fatal()s on stream errors. */
void writeImage(std::ostream &os, const PersistedImage &img);

/** Parses an image; fatal()s on any corruption (see file comment). */
PersistedImage readImage(std::istream &is);

/** File variants. */
void writeImageFile(const std::string &path, const PersistedImage &img);
PersistedImage readImageFile(const std::string &path);

} // namespace syncron::durability

#endif // SYNCRON_DURABILITY_IMAGE_HH
