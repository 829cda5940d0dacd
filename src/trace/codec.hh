/**
 * @file
 * The one decoder of the `SYNCTRC` byte layout (trace/format.hh
 * documents the layout), and its one encoder, encodeTrace(), which
 * TraceWriter and durability::writeImage run over a buffered
 * VarintWriter.
 *
 * Every reader runs these functions over a VarintCursor:
 * MappedTraceReader over the mmap'd file, durability::readImage over
 * the `SYNCTRC` container embedded in a `SYNCDUR` image. So a record
 * stream is accepted or rejected, with the same diagnostic, in either
 * container — by construction, not by test. Past the primitive table
 * decoding allocates nothing: RecordDecoder::next() is inline
 * arithmetic over the cursor, with every diagnostic built out of line.
 *
 * Decoded values are validated, never truncated or wrapped: a field
 * wider than its 32-bit slot, an issue tick past INT64_MAX or below 0,
 * and a completion tick that would wrap are all rejected.
 */

#ifndef SYNCRON_TRACE_CODEC_HH
#define SYNCRON_TRACE_CODEC_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "trace/format.hh"
#include "trace/varint.hh"

namespace syncron::trace {

/**
 * Cap for count-driven reserve()s. Counts come off the wire
 * unvalidated; a corrupt count must fail as a clean truncation fatal
 * inside the read loop, not as a giant up-front allocation.
 */
inline constexpr std::uint64_t kReserveCap = 1 << 16;

/** fatal()s: @p field of the container under @p cur holds @p raw. */
[[noreturn]] void rejectField(const VarintCursor &cur, const char *field,
                              std::uint64_t raw);

/** Reads an enum field; fatal() when it lies past @p last. */
template <typename Enum>
Enum
getEnum(VarintCursor &cur, Enum last, const char *field)
{
    const std::uint64_t raw = cur.get();
    if (raw > static_cast<std::uint64_t>(last))
        rejectField(cur, field, raw);
    return static_cast<Enum>(raw);
}

/** Reads a 32-bit field; fatal() when the value does not fit. */
inline std::uint32_t
getU32(VarintCursor &cur, const char *field)
{
    const std::uint64_t raw = cur.get();
    if (raw > std::numeric_limits<std::uint32_t>::max())
        rejectField(cur, field, raw);
    return static_cast<std::uint32_t>(raw);
}

/**
 * Encodes @p trace as one complete `SYNCTRC` container into @p out:
 * the only encoder of the layout, run by TraceWriter and by
 * durability::writeImage for the container a `SYNCDUR` image embeds.
 * The caller flushes @p out and checks its stream.
 */
void encodeTrace(VarintWriter &out, const Trace &trace);

/**
 * Decodes a `SYNCTRC` container up to its record stream — magic,
 * version, machine shape, primitive table — into @p shape (whose
 * records stay untouched). fatal()s on any violation.
 * @return the record count that follows
 */
std::uint64_t decodeTraceHeader(VarintCursor &cur, Trace &shape);

/**
 * Decodes all @p count records that follow a header decoded into
 * @p trace, appending them to its records.
 */
void decodeRecords(VarintCursor &cur, std::uint64_t count, Trace &trace);

/**
 * Decodes a `SYNCTRC` record stream one record at a time, validating
 * each against the header it borrows (which must outlive it).
 */
class RecordDecoder
{
  public:
    RecordDecoder(const Trace &shape, std::uint64_t count)
        : shape_(&shape), count_(count)
    {
    }

    /**
     * Decodes the next record into @p out. Returns false once all
     * records have been yielded, having also checked that @p cur holds
     * no trailing bytes. fatal()s on truncation and malformed records,
     * naming the offending record index.
     */
    bool
    next(VarintCursor &cur, TraceRecord &out)
    {
        if (index_ == count_) {
            if (!cur.atEnd())
                reject(cur, Fault::TrailingBytes, 0);
            return false;
        }
        // Zigzag inverse in unsigned arithmetic: z = 2m is the delta +m,
        // z = 2m+1 the delta -(m+1).
        const std::uint64_t z = cur.get();
        const std::uint64_t m = z >> 1;
        if ((z & 1) != 0) {
            if (m >= prevIssued_)
                reject(cur, Fault::NegativeIssue, 0);
            out.issued = prevIssued_ - m - 1;
        } else {
            // prevIssued_ <= INT64_MAX and m < 2^63: no wrap here.
            out.issued = prevIssued_ + m;
            if (out.issued > kMaxIssue)
                reject(cur, Fault::IssueOverflow, out.issued);
        }
        const std::uint64_t latency = cur.get();
        if (latency > std::numeric_limits<Tick>::max() - out.issued)
            reject(cur, Fault::CompletionOverflow, latency);
        out.completed = out.issued + latency;

        const Trace &s = *shape_;
        out.core = getU32(cur, "core");
        if (out.core >= s.numClientCores())
            reject(cur, Fault::CoreOutOfRange, out.core);
        out.kind = getEnum(cur, sync::OpKind::CondBroadcast, "OpKind");
        out.prim = getU32(cur, "primitive id");
        if (out.prim >= s.primitives.size())
            reject(cur, Fault::UnknownPrimitive, out.prim);
        if (primKindOf(out.kind) != s.primitives[out.prim].kind)
            reject(cur, Fault::KindMismatch, out.prim, out.kind);
        out.assocPrim = 0;
        if (out.kind == sync::OpKind::CondWait) {
            out.assocPrim = getU32(cur, "associated lock");
            if (out.assocPrim >= s.primitives.size()
                || s.primitives[out.assocPrim].kind != PrimKind::Lock)
                reject(cur, Fault::NoAssociatedLock, out.assocPrim);
        }
        prevIssued_ = out.issued;
        ++index_;
        return true;
    }

    /** Records yielded so far. */
    std::uint64_t index() const { return index_; }

  private:
    /** Largest issue tick the signed delta chain can express. */
    static constexpr Tick kMaxIssue =
        static_cast<Tick>(std::numeric_limits<std::int64_t>::max());

    enum class Fault
    {
        TrailingBytes,
        NegativeIssue,
        IssueOverflow,
        CompletionOverflow,
        CoreOutOfRange,
        UnknownPrimitive,
        KindMismatch,
        NoAssociatedLock,
    };

    /** Builds and throws the diagnostic for @p fault (cold path). */
    [[noreturn]] void reject(const VarintCursor &cur, Fault fault,
                             std::uint64_t value,
                             sync::OpKind kind = {}) const;

    const Trace *shape_;
    std::uint64_t count_;
    std::uint64_t index_ = 0;
    Tick prevIssued_ = 0;
};

} // namespace syncron::trace

#endif // SYNCRON_TRACE_CODEC_HH
