#include "trace/codec.hh"

#include <algorithm>

#include "common/log.hh"

namespace syncron::trace {

void
rejectField(const VarintCursor &cur, const char *field, std::uint64_t raw)
{
    SYNCRON_FATAL(cur.what() << " contains out-of-range " << field
                             << " value " << raw);
}

namespace {

/** Writes the primitive table: count, then kind/home/param/scope. */
void
encodePrimitives(VarintWriter &out,
                 const std::vector<TracePrimitive> &prims)
{
    out.varint(prims.size());
    for (const TracePrimitive &p : prims) {
        out.varint(static_cast<std::uint64_t>(p.kind));
        out.varint(p.home);
        out.varint(p.param);
        out.varint(static_cast<std::uint64_t>(p.scope));
    }
}

/** Decodes the primitive table encodePrimitives() wrote into @p out. */
void
decodePrimitives(VarintCursor &cur, std::uint32_t numUnits,
                 std::vector<TracePrimitive> &out)
{
    const std::uint64_t count = cur.get();
    out.reserve(static_cast<std::size_t>(std::min(count, kReserveCap)));
    for (std::uint64_t i = 0; i < count; ++i) {
        TracePrimitive p;
        p.kind = getEnum(cur, PrimKind::CondVar, "PrimKind");
        p.home = getU32(cur, "home unit");
        if (p.home >= numUnits)
            SYNCRON_FATAL(cur.what() << " primitive " << i
                                     << " homed in unit " << p.home
                                     << " of a " << numUnits
                                     << "-unit machine");
        p.param = getU32(cur, "primitive parameter");
        p.scope = getEnum(cur, sync::BarrierScope::AcrossUnits,
                          "BarrierScope");
        out.push_back(p);
    }
}

} // namespace

void
encodeTrace(VarintWriter &out, const Trace &trace)
{
    out.bytes(kTraceMagic.data(), kTraceMagic.size());
    out.varint(kTraceVersion);
    out.varint(trace.numUnits);
    out.varint(trace.clientCoresPerUnit);

    encodePrimitives(out, trace.primitives);

    out.varint(trace.records.size());
    Tick prevIssued = 0;
    for (const TraceRecord &r : trace.records) {
        SYNCRON_ASSERT(r.completed >= r.issued,
                       "record completed before it was issued");
        // Modular subtraction, read back as signed: the delta of any
        // two ticks up to INT64_MAX, without signed overflow.
        out.varint(
            zigzag(static_cast<std::int64_t>(r.issued - prevIssued)));
        out.varint(r.completed - r.issued);
        out.varint(r.core);
        out.varint(static_cast<std::uint64_t>(r.kind));
        out.varint(r.prim);
        // v2: the associated lock is a mandatory cond_wait-only field;
        // consumers (the offline deadlock analyzer) rely on it, so an
        // unset or dangling value is a writer error, not a reader one.
        if (r.kind == sync::OpKind::CondWait) {
            if (r.assocPrim >= trace.primitives.size()
                || trace.primitives[r.assocPrim].kind != PrimKind::Lock) {
                SYNCRON_FATAL("cond_wait record without a valid "
                              "associated lock (assocPrim "
                              << r.assocPrim << ")");
            }
            out.varint(r.assocPrim);
        } else if (r.assocPrim != 0) {
            SYNCRON_FATAL("record carries an associated primitive but "
                          "is not a cond_wait ("
                          << sync::opKindName(r.kind) << ")");
        }
        prevIssued = r.issued;
    }
}

std::uint64_t
decodeTraceHeader(VarintCursor &cur, Trace &shape)
{
    if (!cur.skipPrefix(kTraceMagic.data(), kTraceMagic.size()))
        SYNCRON_FATAL("not a SynCron trace (bad magic)");
    const std::uint64_t version = cur.get();
    if (version == 1) {
        // v1's associated-primitive field was unreliable (see the
        // format.hh changelog); silently accepting it would hand the
        // deadlock analyzer cond_waits with no lock.
        SYNCRON_FATAL("trace version 1 is no longer readable (its "
                      "cond_wait records carry no reliable associated "
                      "lock); recapture the trace with this build");
    }
    if (version != kTraceVersion) {
        SYNCRON_FATAL("unsupported trace version " << version
                                                   << " (this build reads "
                                                   << kTraceVersion << ")");
    }

    shape.numUnits = getU32(cur, "unit count");
    shape.clientCoresPerUnit = getU32(cur, "cores-per-unit");
    if (shape.numUnits == 0 || shape.clientCoresPerUnit == 0)
        SYNCRON_FATAL("trace header describes a machine with no cores");
    const std::uint64_t cores =
        std::uint64_t{shape.numUnits} * shape.clientCoresPerUnit;
    if (cores > std::numeric_limits<std::uint32_t>::max())
        SYNCRON_FATAL("trace header describes a machine with " << cores
                                                               << " cores");

    decodePrimitives(cur, shape.numUnits, shape.primitives);
    return cur.get();
}

void
decodeRecords(VarintCursor &cur, std::uint64_t count, Trace &trace)
{
    trace.records.reserve(
        static_cast<std::size_t>(std::min(count, kReserveCap)));
    RecordDecoder decoder(trace, count);
    TraceRecord r;
    while (decoder.next(cur, r))
        trace.records.push_back(r);
}

void
RecordDecoder::reject(const VarintCursor &cur, Fault fault,
                      std::uint64_t value, sync::OpKind kind) const
{
    const Trace &s = *shape_;
    const char *what = cur.what();
    switch (fault) {
      case Fault::TrailingBytes:
        SYNCRON_FATAL("trailing bytes after the last " << what
                                                       << " record");
      case Fault::NegativeIssue:
        SYNCRON_FATAL(what << " record " << index_
                           << " has a negative issue tick");
      case Fault::IssueOverflow:
        SYNCRON_FATAL(what << " record " << index_ << " issue tick "
                           << value << " overflows");
      case Fault::CompletionOverflow:
        SYNCRON_FATAL(what << " record " << index_ << " latency " << value
                           << " overflows its completion tick");
      case Fault::CoreOutOfRange:
        SYNCRON_FATAL(what << " record " << index_ << " issued by core "
                           << value << " of a " << s.numClientCores()
                           << "-core machine");
      case Fault::UnknownPrimitive:
        SYNCRON_FATAL(what << " record " << index_
                           << " names unknown primitive " << value);
      case Fault::KindMismatch:
        SYNCRON_FATAL(what << " record " << index_ << " applies "
                           << sync::opKindName(kind) << " to a "
                           << primKindName(s.primitives[value].kind));
      case Fault::NoAssociatedLock:
        SYNCRON_FATAL(what << " record " << index_
                           << " is a cond_wait without a valid "
                              "associated lock");
    }
    SYNCRON_PANIC("unknown record fault");
}

} // namespace syncron::trace
