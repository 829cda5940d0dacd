/**
 * @file
 * Persistent-memory durability model parameters.
 *
 * NearPM-style persistent memory sits behind the NDP units; the SE's
 * synchronization state (ST entries, indexing counters, overflowed
 * in-memory records) can be made crash-consistent by logging every
 * state transition through a modeled PM write. This header carries only
 * the knobs, the record geometries and the one PM-write charge, so
 * SystemConfig and the SE structures can use them without pulling the
 * durability subsystem into every translation unit.
 *
 * Two persist granularities are modeled:
 *   - Eager: every completed sync op is persisted before the next one
 *     is admitted — a PM write (PmParams::writeTicks) is charged on the
 *     issue path of every acquire-type operation, and the WAL is
 *     durable up to the last completed op at any crash point.
 *   - Epoch: completions are staged in a volatile buffer and flushed as
 *     one batched PM write every epochOps completions — no per-op
 *     latency, but a crash loses the staged tail back to the last
 *     epoch boundary.
 */

#ifndef SYNCRON_DURABILITY_PM_MODEL_HH
#define SYNCRON_DURABILITY_PM_MODEL_HH

#include <cstdint>
#include <string_view>

#include "common/stats.hh"
#include "common/types.hh"

namespace syncron::durability {

/** Persist granularity for SE state (see file comment). */
enum class PersistMode : std::uint8_t
{
    Off,   ///< no durability: SE state is volatile (the paper's design)
    Eager, ///< per-op write-ahead persist
    Epoch, ///< epoch-batched persist (staged tail lost on crash)
};

/** Printable name. */
inline const char *
persistModeName(PersistMode m)
{
    switch (m) {
      case PersistMode::Off: return "off";
      case PersistMode::Eager: return "eager";
      case PersistMode::Epoch: return "epoch";
    }
    return "?";
}

/** Parses a mode name; returns false on an unknown name. */
inline bool
persistModeFromName(std::string_view name, PersistMode &out)
{
    if (name == "off") {
        out = PersistMode::Off;
    } else if (name == "eager") {
        out = PersistMode::Eager;
    } else if (name == "epoch") {
        out = PersistMode::Epoch;
    } else {
        return false;
    }
    return true;
}

/** Modeled PM write path (NearPM-class device behind each unit). */
struct PmParams
{
    /** Latency of one persisted write reaching the PM durability
     *  domain; charged on every eager-persisted acquire-type op. */
    Tick writeTicks = 30000; // 30 ns

    /** Energy per persisted bit (pJ); charged via system/energy. */
    double pjPerBit = 15.0;

    friend bool operator==(const PmParams &, const PmParams &) = default;
};

// Persisted-record geometries (bits written per log append). A WAL
// record mirrors the wire-level request descriptor plus sequencing;
// the SE-state images mirror the structures they shadow.
inline constexpr unsigned kWalRecordBits = 128;
/** One ST entry image (sync_table.hh StEntry, rounded up). */
inline constexpr unsigned kStEntryBits = 256;
/** One indexing-counter image. */
inline constexpr unsigned kCounterBits = 32;
/** One overflowed in-memory syncronVar record (16 B, Section 4.3.2). */
inline constexpr unsigned kMemVarBits = 128;

/** Charges one PM write of @p bits to @p stats. */
inline void
chargePmWrite(SystemStats &stats, std::uint64_t bits)
{
    ++stats.pmWrites;
    stats.pmBitsWritten += bits;
}

} // namespace syncron::durability

#endif // SYNCRON_DURABILITY_PM_MODEL_HH
