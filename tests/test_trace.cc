/**
 * @file
 * Trace subsystem tests: varint container round-trip (property-style
 * over random streams), corruption/truncation rejection, capture from a
 * live run, cross-backend replay with exact operation-count
 * reproduction, replay determinism, and the statistical shape of every
 * synthetic scenario family.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "system/system.hh"
#include "trace/capture.hh"
#include "trace/format.hh"
#include "trace/mmap_reader.hh"
#include "trace/replay.hh"
#include "trace/scenario.hh"
#include "trace/varint.hh"
#include "workloads/micro/primitives.hh"

#include "scratch_file.hh"

namespace syncron::trace {
namespace {

// --------------------------------------------------------------------
// Container format
// --------------------------------------------------------------------

/** A structurally valid random trace driven by @p rng. */
Trace
randomTrace(Rng &rng)
{
    Trace t;
    t.numUnits = 1 + static_cast<std::uint32_t>(rng.below(4));
    t.clientCoresPerUnit =
        1 + static_cast<std::uint32_t>(rng.below(15));

    const unsigned numPrims = 1 + static_cast<unsigned>(rng.below(20));
    for (unsigned i = 0; i < numPrims; ++i) {
        TracePrimitive p;
        p.kind = static_cast<PrimKind>(rng.below(4));
        p.home = static_cast<UnitId>(rng.below(t.numUnits));
        p.param = static_cast<std::uint32_t>(rng.next());
        p.scope = rng.chance(0.5) ? sync::BarrierScope::WithinUnit
                                  : sync::BarrierScope::AcrossUnits;
        t.primitives.push_back(p);
    }
    // Guarantee one lock so CondWait records have a valid associate.
    t.primitives[0].kind = PrimKind::Lock;

    const unsigned numRecords = static_cast<unsigned>(rng.below(200));
    for (unsigned i = 0; i < numRecords; ++i) {
        TraceRecord r;
        // Issue ticks jump around to exercise the zigzag deltas.
        r.issued = rng.below(1'000'000'000ULL);
        r.completed = r.issued + rng.below(100'000);
        r.core =
            static_cast<std::uint32_t>(rng.below(t.numClientCores()));
        // Pick the primitive first, then an op of its kind (the reader
        // rejects mismatches).
        r.prim = static_cast<std::uint32_t>(rng.below(numPrims));
        switch (t.primitives[r.prim].kind) {
          case PrimKind::Lock:
            r.kind = rng.chance(0.5) ? sync::OpKind::LockAcquire
                                     : sync::OpKind::LockRelease;
            break;
          case PrimKind::Barrier:
            r.kind = rng.chance(0.5)
                         ? sync::OpKind::BarrierWaitWithinUnit
                         : sync::OpKind::BarrierWaitAcrossUnits;
            break;
          case PrimKind::Semaphore:
            r.kind = rng.chance(0.5) ? sync::OpKind::SemWait
                                     : sync::OpKind::SemPost;
            break;
          case PrimKind::CondVar:
            switch (rng.below(3)) {
              case 0:
                r.kind = sync::OpKind::CondWait;
                r.assocPrim = 0; // the guaranteed lock
                break;
              case 1: r.kind = sync::OpKind::CondSignal; break;
              default: r.kind = sync::OpKind::CondBroadcast; break;
            }
            break;
        }
        t.records.push_back(r);
    }
    return t;
}

/**
 * LEB128 of @p v, built one byte at a time: the unbuffered reference
 * the writer's buffered encoder must reproduce byte for byte.
 */
std::string
varint(std::uint64_t v)
{
    std::string out;
    while (v >= 0x80) {
        out += static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
    return out;
}

/** The `SYNCTRC` container of @p t, encoded field by field with
 *  varint() straight from the layout in trace/format.hh. */
std::string
referenceEncode(const Trace &t)
{
    std::string b(kTraceMagic.begin(), kTraceMagic.end());
    b += varint(kTraceVersion) + varint(t.numUnits)
         + varint(t.clientCoresPerUnit) + varint(t.primitives.size());
    for (const TracePrimitive &p : t.primitives) {
        b += varint(static_cast<std::uint64_t>(p.kind)) + varint(p.home)
             + varint(p.param)
             + varint(static_cast<std::uint64_t>(p.scope));
    }
    b += varint(t.records.size());
    Tick prev = 0;
    for (const TraceRecord &r : t.records) {
        b += varint(zigzag(static_cast<std::int64_t>(r.issued - prev)))
             + varint(r.completed - r.issued) + varint(r.core)
             + varint(static_cast<std::uint64_t>(r.kind))
             + varint(r.prim);
        if (r.kind == sync::OpKind::CondWait)
            b += varint(r.assocPrim);
        prev = r.issued;
    }
    return b;
}

std::string
encode(const Trace &t)
{
    std::ostringstream os;
    TraceWriter(os).write(t);
    return os.str();
}

Trace
decode(const std::string &bytes)
{
    const ScratchFile file;
    return MappedTraceReader(file.write(bytes)).materialize();
}

TEST(TraceFormat, RoundTripsRandomStreams)
{
    Rng rng(20260728);
    for (int iter = 0; iter < 50; ++iter) {
        const Trace t = randomTrace(rng);
        const Trace back = decode(encode(t));
        EXPECT_EQ(t, back) << "round-trip mismatch at iteration "
                           << iter;
    }
}

TEST(TraceFormat, EncodingIsCompact)
{
    // The varint/delta container must beat naive fixed-width records
    // (48 B each) by a wide margin on a realistic stream.
    ScenarioSpec spec;
    spec.numUnits = 2;
    spec.clientCoresPerUnit = 4;
    spec.opsPerCore = 64;
    const Trace t = ScenarioGenerator(spec).generate();
    const std::string bytes = encode(t);
    EXPECT_LT(bytes.size(), t.records.size() * 12)
        << "varint records should average well under 12 bytes";
}

TEST(TraceFormat, RejectsBadMagicAndVersion)
{
    Rng rng(7);
    const std::string good = encode(randomTrace(rng));

    std::string badMagic = good;
    badMagic[0] = 'X';
    EXPECT_THROW(decode(badMagic), std::runtime_error);

    // Version is the varint right after the 8-byte magic; 0x7f is an
    // unknown single-byte version.
    std::string badVersion = good;
    badVersion[8] = '\x7f';
    EXPECT_THROW(decode(badVersion), std::runtime_error);
}

TEST(TraceFormat, RejectsVersion1WithRecaptureMessage)
{
    // v1 records carried no reliable associated-lock field, so the
    // offline deadlock analyzer cannot trust them; the reader must
    // reject v1 with a message telling the user to recapture.
    Rng rng(23);
    std::string v1 = encode(randomTrace(rng));
    v1[8] = '\x01'; // version varint right after the 8-byte magic
    try {
        decode(v1);
        FAIL() << "a version-1 trace was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("recapture"),
                  std::string::npos)
            << "message should point at recapturing: " << e.what();
    }
}

TEST(TraceFormat, RejectsTruncation)
{
    Rng rng(13);
    Trace t = randomTrace(rng);
    while (t.records.empty())
        t = randomTrace(rng);
    const std::string good = encode(t);

    // Every proper prefix must be rejected, never silently accepted:
    // header cuts, primitive-table cuts, and mid-record cuts alike.
    for (std::size_t len : {std::size_t{0}, std::size_t{4},
                            std::size_t{9}, good.size() / 2,
                            good.size() - 1}) {
        EXPECT_THROW(decode(good.substr(0, len)), std::runtime_error)
            << "accepted a " << len << "-byte prefix of a "
            << good.size() << "-byte trace";
    }
}

TEST(TraceFormat, RejectsCorruptCountsCleanly)
{
    // An absurd count varint must fail as a clean trace fatal
    // (std::runtime_error) inside the read loop — not as a giant
    // up-front reserve() throwing std::length_error / bad_alloc.
    auto vint = [](std::uint64_t v) {
        std::string s;
        while (v >= 0x80) {
            s.push_back(static_cast<char>((v & 0x7f) | 0x80));
            v >>= 7;
        }
        s.push_back(static_cast<char>(v));
        return s;
    };
    std::string bytes(kTraceMagic.begin(), kTraceMagic.end());
    bytes += vint(kTraceVersion) + vint(1) + vint(1);
    bytes += vint(1ULL << 60); // primitive count, then EOF
    EXPECT_THROW(decode(bytes), std::runtime_error);
}

TEST(TraceFormat, RejectsTrailingGarbage)
{
    Rng rng(17);
    const std::string good = encode(randomTrace(rng));
    EXPECT_THROW(decode(good + "junk"), std::runtime_error);
}

TEST(TraceFormat, RejectsDanglingReferences)
{
    // A record naming a primitive past the table must be rejected.
    Trace t;
    t.numUnits = 1;
    t.clientCoresPerUnit = 1;
    t.primitives.push_back(TracePrimitive{});
    TraceRecord r;
    r.kind = sync::OpKind::LockAcquire;
    r.prim = 7; // out of range
    t.records.push_back(r);
    EXPECT_THROW(decode(encode(t)), std::runtime_error);

    // So must a cond_wait whose associate is not a lock.
    t.records[0].prim = 0;
    t.records[0].kind = sync::OpKind::CondWait;
    t.records[0].assocPrim = 0;
    t.primitives[0].kind = PrimKind::CondVar;
    EXPECT_THROW(decode(encode(t)), std::runtime_error);

    // And an op applied to a primitive of the wrong kind: a replayer
    // fed such a record would touch an un-minted handle, so the reader
    // rejects it up front.
    t.records[0].kind = sync::OpKind::LockAcquire;
    t.records[0].assocPrim = 0;
    EXPECT_THROW(decode(encode(t)), std::runtime_error);
    t.primitives[0].kind = PrimKind::Semaphore;
    t.records[0].kind = sync::OpKind::BarrierWaitAcrossUnits;
    EXPECT_THROW(decode(encode(t)), std::runtime_error);
}

// -- Crafted containers: values the encoder never writes --------------

/**
 * Header of a 1-unit, 1-core container whose primitive table holds a
 * lock (id 0) and a condvar (id 1), announcing @p records records.
 */
std::string
craftedHeader(std::uint64_t records, std::uint64_t units = 1,
              std::uint64_t coresPerUnit = 1, std::uint64_t param = 0)
{
    std::string b(kTraceMagic.begin(), kTraceMagic.end());
    b += varint(kTraceVersion) + varint(units) + varint(coresPerUnit);
    b += varint(2);
    b += varint(0) + varint(0) + varint(param) + varint(0); // lock
    b += varint(3) + varint(0) + varint(0) + varint(0);     // condvar
    return b + varint(records);
}

/** One record: issue delta (zigzag'd), latency, core, kind, prim. */
std::string
craftedRecord(std::uint64_t zigzagDelta, std::uint64_t latency,
              std::uint64_t core = 0,
              sync::OpKind kind = sync::OpKind::LockAcquire,
              std::uint64_t prim = 0)
{
    return varint(zigzagDelta) + varint(latency) + varint(core)
           + varint(static_cast<std::uint64_t>(kind)) + varint(prim);
}

/** Decodes @p bytes through both readers (istream and mmap'd file). */
void
expectBothReject(const std::string &bytes, const char *what)
{
    EXPECT_THROW(decode(bytes), std::runtime_error) << what;
    const std::string path = "test_trace_crafted.trc";
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(readTraceFile(path), std::runtime_error) << what;
    std::remove(path.c_str());
}

TEST(TraceFormat, RejectsIssueTickOverflow)
{
    constexpr std::uint64_t kInt64Max = 0x7fffffffffffffffULL;
    // Record 0 issues at INT64_MAX; record 1's delta +1 overflows it.
    const std::string overflow = craftedHeader(2)
                                 + craftedRecord(zigzag(kInt64Max), 0)
                                 + craftedRecord(zigzag(1), 0);
    expectBothReject(overflow, "issue tick past INT64_MAX");

    // At INT64_MAX itself the record is legal...
    const Trace edge =
        decode(craftedHeader(1) + craftedRecord(zigzag(kInt64Max), 0));
    EXPECT_EQ(edge.records.at(0).issued, kInt64Max);

    // ...and the most negative delta is a negative tick, not a wrap.
    expectBothReject(craftedHeader(1) + craftedRecord(~0ULL, 0),
                     "INT64_MIN delta from tick 0");
    expectBothReject(craftedHeader(2) + craftedRecord(zigzag(5), 0)
                         + craftedRecord(zigzag(-6), 0),
                     "negative issue tick");
}

TEST(TraceFormat, RejectsCompletionTickWrap)
{
    constexpr std::uint64_t kMax = ~0ULL;
    // issued 10 + latency (2^64 - 6) wraps past 2^64.
    expectBothReject(craftedHeader(1) + craftedRecord(zigzag(10), kMax - 5),
                     "completion tick wraps");
    const Trace edge =
        decode(craftedHeader(1) + craftedRecord(zigzag(10), kMax - 10));
    EXPECT_EQ(edge.records.at(0).completed, kMax);
}

TEST(TraceFormat, Rejects32BitFieldsThatDoNotFit)
{
    constexpr std::uint64_t k2To32 = 1ULL << 32;
    const std::string lockOp = craftedRecord(0, 0);
    // Each of these used to truncate silently into a valid value.
    expectBothReject(craftedHeader(1) + craftedRecord(0, 0, k2To32),
                     "core 2^32");
    expectBothReject(craftedHeader(1)
                         + craftedRecord(0, 0, 0,
                                         sync::OpKind::LockAcquire,
                                         k2To32),
                     "prim 2^32");
    expectBothReject(craftedHeader(1)
                         + craftedRecord(0, 0, 0, sync::OpKind::CondWait,
                                         1)
                         + varint(k2To32),
                     "assocPrim 2^32");
    expectBothReject(craftedHeader(1, 1, 1, k2To32) + lockOp,
                     "param 2^32");
    expectBothReject(craftedHeader(1, k2To32 + 1) + lockOp,
                     "numUnits 2^32 + 1");
    expectBothReject(craftedHeader(1, 1, k2To32 + 1) + lockOp,
                     "clientCoresPerUnit 2^32 + 1");
    // In range, but the machine's core count would wrap 32 bits.
    expectBothReject(craftedHeader(1, 1u << 16, 1u << 16) + lockOp,
                     "2^32 client cores");

    // The same containers with in-range values decode.
    const Trace ok = decode(craftedHeader(1)
                            + craftedRecord(0, 0, 0,
                                            sync::OpKind::CondWait, 1)
                            + varint(0));
    EXPECT_EQ(ok.records.at(0).assocPrim, 0u);
}

TEST(TraceFormat, WriteToFullDiskIsFatal)
{
    if (!std::ifstream("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this platform";
    Rng rng(31);
    // Small enough to sit in the stream buffer until close.
    const Trace t = randomTrace(rng);
    EXPECT_THROW(writeTraceFile(t, "/dev/full"), std::runtime_error);
}

// -- Pinned bytes: the encoder's output must never move ----------------

/** @p bytes as a C array body, for re-pinning after a version bump. */
std::string
hexBytes(const std::string &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const auto b = static_cast<unsigned char>(bytes[i]);
        out += i % 12 == 0 ? "\n    " : " ";
        out += {'0', 'x', kDigits[b >> 4], kDigits[b & 0xf], ','};
    }
    return out;
}

/**
 * Varint edge values in every field that allows them: 0, 127, 128,
 * 2^32 - 1, 2^63 and UINT64_MAX, a negative issue delta, the most
 * negative one, and a cond_wait with its associated lock.
 */
Trace
edgeValueTrace()
{
    constexpr std::uint64_t kU32Max = 0xffffffffULL;
    Trace t;
    t.numUnits = 2;
    t.clientCoresPerUnit = 64; // core 127 is a 1-byte varint
    t.primitives = {
        {PrimKind::Lock, 0, 0, sync::BarrierScope::AcrossUnits},
        {PrimKind::Barrier, 1, 128, sync::BarrierScope::WithinUnit},
        {PrimKind::Semaphore, 1, kU32Max,
         sync::BarrierScope::AcrossUnits},
        {PrimKind::CondVar, 0, 127, sync::BarrierScope::AcrossUnits},
    };
    auto add = [&t](Tick issued, Tick latency, std::uint32_t core,
                    sync::OpKind kind, std::uint32_t prim,
                    std::uint32_t assoc = 0) {
        t.records.push_back(
            TraceRecord{issued, issued + latency, core, kind, prim, assoc});
    };
    add(0, 0, 0, sync::OpKind::LockAcquire, 0);
    add(127, 128, 127, sync::OpKind::BarrierWaitWithinUnit, 1);
    add(128, kU32Max, 1, sync::OpKind::SemWait, 2);
    add(100, 127, 2, sync::OpKind::CondWait, 3, 0); // negative delta
    add(Tick{1} << 62, Tick{1} << 63, 3, sync::OpKind::SemPost, 2);
    add(0x7fffffffffffffffULL, 0, 4, sync::OpKind::CondSignal, 3);
    add(0, ~0ULL, 5, sync::OpKind::LockRelease, 0); // INT64_MIN + 1
    return t;
}

TEST(TraceFormat, EncodesPinnedBytes)
{
    // Bytes of edgeValueTrace() as written before the encoder was
    // buffered. A change here is a container-layout change: bump
    // kTraceVersion, never the pin alone.
    static const unsigned char kPinned[] = {
        0x53, 0x59, 0x4e, 0x43, 0x54, 0x52, 0x43, 0x00, 0x02, 0x02, 0x40, 0x04,
        0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x80, 0x01, 0x00, 0x02, 0x01, 0xff,
        0xff, 0xff, 0xff, 0x0f, 0x01, 0x03, 0x00, 0x7f, 0x01, 0x07, 0x00, 0x00,
        0x00, 0x00, 0x00, 0xfe, 0x01, 0x80, 0x01, 0x7f, 0x02, 0x01, 0x02, 0xff,
        0xff, 0xff, 0xff, 0x0f, 0x01, 0x04, 0x02, 0x37, 0x7f, 0x02, 0x06, 0x03,
        0x00, 0xb8, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x80, 0x80,
        0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x03, 0x05, 0x02, 0xfe,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00, 0x04, 0x07, 0x03,
        0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x05, 0x01, 0x00,
    };
    const Trace t = edgeValueTrace();
    const std::string bytes = encode(t);
    EXPECT_EQ(bytes, std::string(reinterpret_cast<const char *>(kPinned),
                                 sizeof(kPinned)))
        << "encoded:" << hexBytes(bytes);
    EXPECT_EQ(bytes, referenceEncode(t));
    EXPECT_EQ(decode(bytes), t);
}

TEST(TraceFormat, TraceLargerThanTheEncoderBufferMatchesReference)
{
    // Far more than one encoder buffer of records, with field widths
    // varying record to record, so flushes land mid-record.
    Rng rng(4242);
    Trace t;
    t.numUnits = 4;
    t.clientCoresPerUnit = 15;
    t.primitives.assign(300, TracePrimitive{});
    Tick issued = 0;
    for (unsigned i = 0; i < 40'000; ++i) {
        TraceRecord r;
        issued = rng.chance(0.1) ? issued - std::min<Tick>(issued, 999)
                                 : issued + rng.below(1ULL << (i % 40));
        r.issued = issued;
        r.completed = issued + rng.below(1ULL << (i % 33));
        r.core = static_cast<std::uint32_t>(rng.below(60));
        r.kind = rng.chance(0.5) ? sync::OpKind::LockAcquire
                                 : sync::OpKind::LockRelease;
        r.prim = static_cast<std::uint32_t>(rng.below(300));
        t.records.push_back(r);
    }
    const std::string bytes = encode(t);
    ASSERT_GT(bytes.size(), std::size_t{4} << 16);
    EXPECT_TRUE(bytes == referenceEncode(t));
    EXPECT_EQ(decode(bytes), t);

    // The file path (writeTraceFile) writes the same bytes.
    const std::string path = "test_trace_large.trc";
    writeTraceFile(t, path);
    std::ifstream in(path, std::ios::binary);
    const std::string file{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    EXPECT_TRUE(file == bytes);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Capture and replay
// --------------------------------------------------------------------

/** Serializes the deterministic (simulated-only) metrics of a run. */
std::string
simMetricsJson(const harness::RunOutput &out)
{
    std::ostringstream os;
    harness::JsonWriter j(os);
    j.beginObject();
    j.field("simTicks", out.time);
    j.field("ops", out.ops);
    j.field("opsPerMs", out.opsPerMs());
    j.key("syncLatency");
    j.beginArray();
    for (const SyncOpLatency &l : out.stats.syncLatency) {
        j.beginObject()
            .field("count", l.count)
            .field("total", l.totalTicks)
            .field("min", l.minTicks)
            .field("max", l.maxTicks)
            .endObject();
    }
    j.endArray();
    j.endObject();
    return os.str();
}

TEST(TraceCaptureReplay, DataStructureRunCapturesAndReplaysEverywhere)
{
    // The fig11 workload path (runDataStructure) with the capture hook:
    // one structure, small scale, as in the bench.
    const std::string path = "test_trace_capture.trc";
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
    cfg.tracePath = path;
    const harness::RunOutput original = harness::runDataStructure(
        cfg, harness::DsKind::Queue, 64, 6);

    const Trace t = readTraceFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(t.numUnits, 2u);
    EXPECT_EQ(t.clientCoresPerUnit, 4u);
    EXPECT_EQ(t.records.size(), original.stats.syncOps);
    EXPECT_FALSE(t.primitives.empty());

    const auto want = t.opCounts();
    // Replay on the capturing backend reproduces the per-OpKind mix
    // exactly; the other backends execute the same stream.
    for (Scheme scheme :
         {Scheme::SynCron, Scheme::Central, Scheme::SynCronFlat}) {
        const harness::RunOutput out =
            harness::runTrace(replayConfig(t, scheme), t);
        EXPECT_EQ(out.ops, t.records.size()) << schemeName(scheme);
        for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
            EXPECT_EQ(out.stats.syncLatency[k].count, want[k])
                << schemeName(scheme) << " op kind " << k;
        }
    }
}

TEST(TraceCaptureReplay, InMemoryCaptureMatchesTheFile)
{
    // NdpSystem::traceCapture() exposes the live capture; its
    // accumulated trace and the file run() writes must round-trip to
    // the same value — on a server-based backend for variety.
    const std::string path = "test_trace_capture_mem.trc";
    SystemConfig cfg = SystemConfig::make(Scheme::Central, 2, 3);
    cfg.tracePath = path;
    NdpSystem sys(cfg);
    ASSERT_NE(sys.traceCapture(), nullptr);
    workloads::PrimitiveWorkload w(sys, workloads::Primitive::Lock, 50,
                                   4);
    sys.run();
    const Trace &mem = sys.traceCapture()->trace();
    EXPECT_FALSE(mem.records.empty());
    EXPECT_EQ(mem, readTraceFile(path));
    std::remove(path.c_str());
}

sim::Process
guardScopeExitWorker(NdpSystem &sys, core::Core &c, sync::Lock lock)
{
    sync::SyncApi &api = sys.api();
    {
        sync::ScopedLock guard = co_await api.scoped(c, lock);
        co_await c.compute(10);
        // No explicit unlock: scope exit issues the detached release.
    }
    co_await c.compute(10);
}

TEST(TraceCaptureReplay, GuardScopeExitReleaseIsCaptured)
{
    // The ScopedLock scope-exit release is issued detached (no awaiting
    // coroutine); the capture hook must still see it — with completion
    // == issue tick, since req_async commits at issue and nothing ever
    // observes a later completion — or captured traces under-count
    // releases relative to acquires.
    const std::string path = "test_trace_guard_exit.trc";
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
    cfg.tracePath = path;
    NdpSystem sys(cfg);
    sync::Lock lock = sys.api().createLock(0);
    sys.spawn(guardScopeExitWorker(sys, sys.clientCore(0), lock));
    sys.run();

    const Trace &t = sys.traceCapture()->trace();
    std::remove(path.c_str());
    const auto counts = t.opCounts();
    EXPECT_EQ(counts[static_cast<unsigned>(sync::OpKind::LockAcquire)],
              1u);
    EXPECT_EQ(counts[static_cast<unsigned>(sync::OpKind::LockRelease)],
              1u);
    bool sawDetachedRelease = false;
    for (const TraceRecord &r : t.records) {
        if (r.kind != sync::OpKind::LockRelease)
            continue;
        sawDetachedRelease = true;
        EXPECT_EQ(r.completed, r.issued);
    }
    EXPECT_TRUE(sawDetachedRelease);
}

sim::Process
recycleWorker(NdpSystem &sys, core::Core &c)
{
    // Use a lock, destroy it, then mint a semaphore and a second-
    // generation semaphore with different resources — the allocator
    // recycles the same line each time, so the capture must split the
    // logical primitives instead of conflating (or rejecting) them.
    sync::SyncApi &api = sys.api();
    sync::Lock lock = api.createLock(0);
    co_await api.acquire(c, lock);
    co_await api.release(c, lock);
    api.destroy(lock);
    sync::Semaphore sem = api.createSemaphore(0, 1);
    co_await api.wait(c, sem);
    co_await api.post(c, sem);
    api.destroy(sem);
    // Same kind, different creation parameter: merging the two
    // generations would replay gen-2 waits against gen-1's resources.
    sync::Semaphore sem2 = api.createSemaphore(0, 2);
    co_await api.wait(c, sem2);
    co_await api.post(c, sem2);
}

TEST(TraceCaptureReplay, CaptureSplitsRecycledLines)
{
    const std::string path = "test_trace_recycle.trc";
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 1, 1);
    cfg.tracePath = path;
    NdpSystem sys(cfg);
    sys.spawn(recycleWorker(sys, sys.clientCore(0)));
    sys.run();

    const Trace t = readTraceFile(path);
    std::remove(path.c_str());
    ASSERT_EQ(t.records.size(), 6u);
    ASSERT_EQ(t.primitives.size(), 3u);
    EXPECT_EQ(t.primitives[0].kind, PrimKind::Lock);
    EXPECT_EQ(t.primitives[1].kind, PrimKind::Semaphore);
    EXPECT_EQ(t.primitives[1].param, 1u);
    EXPECT_EQ(t.primitives[2].kind, PrimKind::Semaphore);
    EXPECT_EQ(t.primitives[2].param, 2u);
    EXPECT_NE(t.records[2].prim, t.records[4].prim);

    // The split trace replays cleanly (reader kind-checks passed).
    const harness::RunOutput out =
        harness::runTrace(replayConfig(t, Scheme::SynCron), t);
    EXPECT_EQ(out.ops, 6u);
}

TEST(TraceCaptureReplay, ReplayerRejectsMismatchedMachineShape)
{
    ScenarioSpec spec;
    spec.numUnits = 2;
    spec.clientCoresPerUnit = 4;
    spec.opsPerCore = 4;
    const Trace t = ScenarioGenerator(spec).generate();
    const SystemConfig wrong =
        SystemConfig::make(Scheme::SynCron, 4, 4);
    EXPECT_THROW(harness::runTrace(wrong, t), std::runtime_error);
}

TEST(TraceCaptureReplay, ReplayIsDeterministic)
{
    ScenarioSpec spec;
    spec.family = ScenarioFamily::ZipfLock;
    spec.numUnits = 2;
    spec.clientCoresPerUnit = 4;
    spec.opsPerCore = 12;
    const Trace t = ScenarioGenerator(spec).generate();

    const SystemConfig cfg = replayConfig(t, Scheme::SynCron);
    const harness::RunOutput a = harness::runTrace(cfg, t);
    const harness::RunOutput b = harness::runTrace(cfg, t);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.stats.syncLocalMsgs, b.stats.syncLocalMsgs);
    EXPECT_EQ(a.stats.syncGlobalMsgs, b.stats.syncGlobalMsgs);
    EXPECT_EQ(a.stats.dramReads, b.stats.dramReads);
    // The simulated-metric subset of the BENCH_trace_replay.json record
    // must be byte-identical across runs.
    EXPECT_EQ(simMetricsJson(a), simMetricsJson(b));
}

// --------------------------------------------------------------------
// Scenario families
// --------------------------------------------------------------------

/** Small-machine spec for @p family, feasible on every backend. */
ScenarioSpec
smallSpec(ScenarioFamily family)
{
    ScenarioSpec spec;
    spec.family = family;
    spec.numUnits = 2;
    spec.clientCoresPerUnit = 3;
    spec.opsPerCore = 6;
    spec.phases = 3;
    return spec;
}

TEST(Scenario, GenerationIsDeterministicInTheSpec)
{
    for (ScenarioFamily family : kAllScenarioFamilies) {
        const ScenarioSpec spec = smallSpec(family);
        EXPECT_EQ(ScenarioGenerator(spec).generate(),
                  ScenarioGenerator(spec).generate())
            << scenarioFamilyName(family);
    }
}

TEST(Scenario, EveryFamilyReplaysOnSynCron)
{
    for (ScenarioFamily family : kAllScenarioFamilies) {
        const Trace t =
            ScenarioGenerator(smallSpec(family)).generate();
        ASSERT_FALSE(t.records.empty())
            << scenarioFamilyName(family);
        const harness::RunOutput out = harness::runTrace(
            replayConfig(t, Scheme::SynCron), t);
        EXPECT_EQ(out.ops, t.records.size())
            << scenarioFamilyName(family);
        EXPECT_GT(out.time, 0u);
    }
}

TEST(Scenario, ZipfSkewConcentratesOnTheHotLock)
{
    ScenarioSpec spec;
    spec.family = ScenarioFamily::ZipfLock;
    spec.numUnits = 2;
    spec.clientCoresPerUnit = 8;
    spec.opsPerCore = 64;
    spec.numLocks = 64;

    spec.zipfExponent = 1.2;
    const double skewed =
        ScenarioGenerator(spec).generate().hottestLockShare();
    spec.zipfExponent = 0.0; // uniform
    const double uniform =
        ScenarioGenerator(spec).generate().hottestLockShare();

    // Uniform: ~1/64 per lock; Zipf(1.2): the rank-1 lock alone draws
    // 1/H_{64,1.2} ~ 27% of all acquires.
    EXPECT_LT(uniform, 0.06);
    EXPECT_GT(skewed, 0.15);
    EXPECT_GT(skewed, 4.0 * uniform);
}

TEST(Scenario, BurstyArrivalsAreBimodal)
{
    ScenarioSpec spec;
    spec.family = ScenarioFamily::BurstyLock;
    spec.numUnits = 1;
    spec.clientCoresPerUnit = 4;
    spec.opsPerCore = 32;
    spec.burstLen = 8;
    const Trace t = ScenarioGenerator(spec).generate();

    for (unsigned core = 0; core < t.numClientCores(); ++core) {
        std::vector<Tick> issues;
        for (const TraceRecord &r : t.records) {
            if (r.core == core
                && r.kind == sync::OpKind::LockAcquire) {
                issues.push_back(r.issued);
            }
        }
        ASSERT_EQ(issues.size(), spec.opsPerCore);
        std::sort(issues.begin(), issues.end());
        std::vector<Tick> gaps;
        for (std::size_t i = 1; i < issues.size(); ++i)
            gaps.push_back(issues[i] - issues[i - 1]);
        std::vector<Tick> sorted = gaps;
        std::sort(sorted.begin(), sorted.end());
        const Tick median = sorted[sorted.size() / 2];

        // Exactly opsPerCore/burstLen - 1 inter-burst gaps, each an
        // order of magnitude above the intra-burst median.
        const auto large = static_cast<std::size_t>(std::count_if(
            gaps.begin(), gaps.end(),
            [median](Tick g) { return g > 10 * median; }));
        EXPECT_EQ(large, spec.opsPerCore / spec.burstLen - 1)
            << "core " << core;
        EXPECT_GT(sorted.back(), 20 * median) << "core " << core;
    }
}

TEST(Scenario, PhasedAlternatesLockBlocksAndBarriers)
{
    ScenarioSpec spec = smallSpec(ScenarioFamily::PhasedBarrierLock);
    spec.opsPerCore = 12;
    spec.phases = 3;
    const Trace t = ScenarioGenerator(spec).generate();

    std::uint64_t barrierOps = 0;
    for (unsigned core = 0; core < t.numClientCores(); ++core) {
        std::vector<sync::OpKind> kinds;
        for (const TraceRecord &r : t.records) {
            if (r.core == core)
                kinds.push_back(r.kind);
        }
        // Per core: (opsPerCore/phases) acquire/release pairs, then a
        // barrier, repeated per phase; the stream ends on a barrier.
        const unsigned pairs = spec.opsPerCore / spec.phases;
        ASSERT_EQ(kinds.size(), spec.phases * (2 * pairs + 1));
        std::size_t i = 0;
        for (unsigned p = 0; p < spec.phases; ++p) {
            for (unsigned op = 0; op < pairs; ++op) {
                EXPECT_EQ(kinds[i++], sync::OpKind::LockAcquire);
                EXPECT_EQ(kinds[i++], sync::OpKind::LockRelease);
            }
            EXPECT_EQ(kinds[i++],
                      sync::OpKind::BarrierWaitAcrossUnits);
        }
        barrierOps += spec.phases;
    }
    const auto counts = t.opCounts();
    EXPECT_EQ(counts[static_cast<unsigned>(
                  sync::OpKind::BarrierWaitAcrossUnits)],
              barrierOps);
}

TEST(Scenario, ReaderHeavySemaphoreMixMatchesTheFraction)
{
    ScenarioSpec spec;
    spec.family = ScenarioFamily::ReaderSemaphore;
    spec.numUnits = 2;
    spec.clientCoresPerUnit = 8;
    spec.opsPerCore = 16;
    spec.readerFraction = 0.75;
    const Trace t = ScenarioGenerator(spec).generate();

    const auto counts = t.opCounts();
    const std::uint64_t waits =
        counts[static_cast<unsigned>(sync::OpKind::SemWait)];
    const std::uint64_t posts =
        counts[static_cast<unsigned>(sync::OpKind::SemPost)];
    EXPECT_EQ(waits, posts) << "every admitted reader re-posts";
    const double semShare =
        static_cast<double>(waits + posts)
        / static_cast<double>(t.records.size());
    EXPECT_NEAR(semShare, spec.readerFraction, 0.05);
}

} // namespace
} // namespace syncron::trace
