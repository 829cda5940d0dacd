/**
 * @file
 * Durability tests: the SYNCDUR persisted-image container, the WAL/PM
 * accounting of the durability manager, the crash lifecycle, and the
 * end-to-end crash-injection sweep — recovery at every sync-op boundary
 * on multiple backends, with the recovered + resumed state matching the
 * clean run's final state.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/live.hh"
#include "durability/image.hh"
#include "durability/manager.hh"
#include "durability/pm_model.hh"
#include "durability/recovery.hh"
#include "harness/crash_sweep.hh"
#include "system/energy.hh"
#include "system/system.hh"
#include "workloads/replication/replication.hh"

namespace syncron::durability {
namespace {

using trace::PrimKind;
using trace::TracePrimitive;
using trace::TraceRecord;

// --------------------------------------------------------------------
// PM model / container
// --------------------------------------------------------------------

TEST(PmModel, ModeNamesRoundTrip)
{
    for (PersistMode m :
         {PersistMode::Off, PersistMode::Eager, PersistMode::Epoch}) {
        PersistMode parsed = PersistMode::Off;
        ASSERT_TRUE(persistModeFromName(persistModeName(m), parsed));
        EXPECT_EQ(parsed, m);
    }
    PersistMode parsed = PersistMode::Off;
    EXPECT_FALSE(persistModeFromName("bogus", parsed));
    EXPECT_FALSE(persistModeFromName("", parsed));
}

TraceRecord
rec(sync::OpKind kind, std::uint32_t core, std::uint32_t prim, Tick t)
{
    TraceRecord r;
    r.issued = t;
    r.completed = t + 5;
    r.core = core;
    r.kind = kind;
    r.prim = prim;
    return r;
}

PersistedImage
sampleImage()
{
    PersistedImage img;
    img.mode = PersistMode::Eager;
    img.epochOps = 8;
    img.crashTick = 123456;
    img.log.numUnits = 2;
    img.log.clientCoresPerUnit = 3;
    img.log.primitives.push_back(
        TracePrimitive{PrimKind::Lock, 0, 0,
                       sync::BarrierScope::AcrossUnits});
    img.log.primitives.push_back(
        TracePrimitive{PrimKind::Semaphore, 1, 4,
                       sync::BarrierScope::AcrossUnits});
    img.log.records.push_back(rec(sync::OpKind::SemWait, 0, 1, 100));
    img.log.records.push_back(rec(sync::OpKind::LockAcquire, 0, 0, 200));
    img.log.records.push_back(rec(sync::OpKind::LockRelease, 0, 0, 300));
    img.appended = img.durable() + 2; // a lost staged tail
    return img;
}

TEST(PersistedImage, RoundTripsThroughContainer)
{
    const PersistedImage img = sampleImage();
    std::stringstream ss;
    writeImage(ss, img);
    const PersistedImage back = readImage(ss);
    EXPECT_EQ(back, img);
    EXPECT_EQ(back.durable(), 3u);
    EXPECT_EQ(back.appended, 5u);
}

TEST(PersistedImage, ReaderRejectsCorruption)
{
    const PersistedImage img = sampleImage();
    std::stringstream ss;
    writeImage(ss, img);
    const std::string good = ss.str();

    {
        // Bad magic.
        std::string bad = good;
        bad[0] = 'X';
        std::stringstream in(bad);
        EXPECT_THROW(readImage(in), std::runtime_error);
    }
    {
        // Truncation.
        std::stringstream in(good.substr(0, good.size() - 1));
        EXPECT_THROW(readImage(in), std::runtime_error);
    }
    {
        // Trailing garbage.
        std::stringstream in(good + "z");
        EXPECT_THROW(readImage(in), std::runtime_error);
    }
    {
        // appended must cover the durable records: the writer refuses
        // to emit such an image in the first place...
        PersistedImage bad = img;
        bad.appended = 1;
        std::stringstream rt;
        EXPECT_THROW(writeImage(rt, bad), std::logic_error);
    }
    {
        // ...and the reader rejects one forged behind its back.
        // Locate the appended varint by diffing against a copy that
        // changes only that field, then patch it below the durable
        // record count.
        PersistedImage big = img;
        big.appended = img.appended + 1;
        std::stringstream bs;
        writeImage(bs, big);
        const std::string other = bs.str();
        std::size_t at = 0;
        while (at < good.size() && good[at] == other[at])
            ++at;
        ASSERT_LT(at, good.size());
        std::string forged = good;
        forged[at] = 1; // appended = 1 < 3 durable records
        std::stringstream in(forged);
        EXPECT_THROW(readImage(in), std::runtime_error);
    }
}

/** readImage()'s fatal message for @p bytes; "" if it accepts them. */
std::string
rejection(const std::string &bytes)
{
    std::stringstream in(bytes);
    try {
        readImage(in);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(PersistedImage, RejectsVersion1ByName)
{
    // v1 wrote its own record layout; like a v1 trace, it is refused
    // with a message naming the version.
    std::stringstream ss;
    writeImage(ss, sampleImage());
    std::string v1 = ss.str();
    v1[8] = '\x01'; // version varint right after the 8-byte magic
    const std::string why = rejection(v1);
    EXPECT_NE(why.find("version 1 is no longer readable"),
              std::string::npos)
        << why;
}

TEST(PersistedImage, EncodesPinnedBytes)
{
    // Header varints at their edges (epoch size 2^32 - 1, crash tick
    // UINT64_MAX, appended 2^63) around a small embedded trace with a
    // negative issue delta. Bytes as written before the encoder was
    // buffered; a change here needs a kImageVersion bump.
    static const unsigned char kPinned[] = {
        0x53, 0x59, 0x4e, 0x43, 0x44, 0x55, 0x52, 0x00, 0x02, 0x02, 0xff, 0xff,
        0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x53,
        0x59, 0x4e, 0x43, 0x54, 0x52, 0x43, 0x00, 0x02, 0x02, 0x03, 0x02, 0x00,
        0x00, 0x00, 0x01, 0x02, 0x01, 0x04, 0x01, 0x04, 0xc8, 0x01, 0x05, 0x00,
        0x04, 0x01, 0xc8, 0x01, 0x05, 0x00, 0x00, 0x00, 0xc8, 0x01, 0x05, 0x00,
        0x01, 0x00, 0xd7, 0x02, 0x05, 0x05, 0x00, 0x00,
    };
    PersistedImage img = sampleImage();
    img.mode = PersistMode::Epoch;
    img.epochOps = 0xffffffffU;
    img.crashTick = ~Tick{0};
    img.appended = std::uint64_t{1} << 63;
    img.log.records.push_back(rec(sync::OpKind::LockAcquire, 5, 0, 128));
    std::stringstream ss;
    writeImage(ss, img);
    EXPECT_EQ(ss.str(), std::string(reinterpret_cast<const char *>(kPinned),
                                    sizeof(kPinned)));
    EXPECT_EQ(readImage(ss), img);
}

TEST(PersistedImage, RejectsRecordOfTheWrongPrimitiveKind)
{
    // The writer serializes whatever it is given; the embedded trace
    // codec rejects a lock_acquire on the semaphore primitive.
    PersistedImage img = sampleImage();
    img.log.records.push_back(rec(sync::OpKind::LockAcquire, 0, 1, 400));
    img.appended = img.durable();
    std::stringstream ss;
    writeImage(ss, img);
    const std::string why = rejection(ss.str());
    EXPECT_NE(why.find("applies lock_acquire to a semaphore"),
              std::string::npos)
        << why;
}

// --------------------------------------------------------------------
// Live WAL / PM accounting
// --------------------------------------------------------------------

SystemConfig
smallCfg(Scheme scheme, PersistMode mode, std::uint32_t epochOps = 8)
{
    SystemConfig cfg = SystemConfig::make(scheme, 2, 3);
    cfg.persistMode = mode;
    cfg.persistEpochOps = epochOps;
    return cfg;
}

workloads::ReplicationParams
smallParams()
{
    workloads::ReplicationParams p;
    p.epochs = 2;
    p.opsPerEpoch = 2;
    return p;
}

TEST(Durability, EagerWalIsDurableAndChargesPm)
{
    NdpSystem sys(smallCfg(Scheme::SynCron, PersistMode::Eager));
    workloads::ReplicationWorkload w(sys, smallParams());
    sys.run();

    DurabilityManager *dm = sys.durability();
    ASSERT_NE(dm, nullptr);
    EXPECT_GT(dm->appended(), 0u);
    EXPECT_EQ(dm->durable(), dm->appended())
        << "eager mode persists every record as it lands";
    EXPECT_GT(sys.stats().pmWrites, dm->appended())
        << "the SE engine charges its ST/counter/syncronVar images";
    EXPECT_GT(sys.stats().pmBitsWritten, 0u);
    EXPECT_GT(computeEnergy(sys.stats(), sys.config()).pmJ, 0.0);

    // The clean image records a clean shutdown covering the whole WAL.
    const PersistedImage img = dm->snapshot();
    EXPECT_EQ(img.crashTick, Tick{0});
    EXPECT_EQ(img.durable(), dm->appended());

    // Central keeps no ST, counter or syncronVar state: its only PM
    // writes are the WAL records.
    NdpSystem central(smallCfg(Scheme::Central, PersistMode::Eager));
    workloads::ReplicationWorkload wc(central, smallParams());
    central.run();
    ASSERT_NE(central.durability(), nullptr);
    EXPECT_GT(central.durability()->appended(), 0u);
    EXPECT_EQ(central.stats().pmWrites, central.durability()->appended());
}

TEST(Durability, OffModeChargesNothing)
{
    NdpSystem sys(smallCfg(Scheme::SynCron, PersistMode::Off));
    workloads::ReplicationWorkload w(sys, smallParams());
    sys.run();
    EXPECT_EQ(sys.durability(), nullptr);
    EXPECT_EQ(sys.stats().pmWrites, 0u);
    EXPECT_EQ(sys.stats().pmBitsWritten, 0u);
}

TEST(Durability, EagerPersistSlowsTheRunDown)
{
    Tick off = 0;
    {
        NdpSystem sys(smallCfg(Scheme::SynCron, PersistMode::Off));
        workloads::ReplicationWorkload w(sys, smallParams());
        sys.run();
        off = sys.elapsed();
    }
    NdpSystem sys(smallCfg(Scheme::SynCron, PersistMode::Eager));
    workloads::ReplicationWorkload w(sys, smallParams());
    sys.run();
    EXPECT_GT(sys.elapsed(), off)
        << "eager mode charges a PM write on every acquire-type op";
}

TEST(Durability, EpochModeFlushesStagedTailOnCleanShutdown)
{
    NdpSystem sys(smallCfg(Scheme::SynCron, PersistMode::Epoch, 8));
    workloads::ReplicationWorkload w(sys, smallParams());
    sys.run();
    DurabilityManager *dm = sys.durability();
    ASSERT_NE(dm, nullptr);
    EXPECT_EQ(dm->durable(), dm->appended())
        << "clean shutdown flushes the staged tail";
    EXPECT_GE(sys.stats().pmFlushes, 1u);
    EXPECT_LT(sys.stats().pmWrites, dm->appended())
        << "epoch batching must write fewer PM lines than records";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

TEST(Durability, CaptureAnalysisAndWalComposeInOneRun)
{
    // Capture, the live analyzer and the epoch WAL are three observers
    // on one stream: together they must see exactly what each sees
    // alone. Epoch mode charges no latency, so the timing is unchanged.
    const std::string alone = "test_compose_capture.trc";
    const std::string all = "test_compose_all.trc";
    SystemConfig cfg = smallCfg(Scheme::SynCron, PersistMode::Off);
    cfg.tracePath = alone;
    {
        NdpSystem sys(cfg);
        workloads::ReplicationWorkload w(sys, smallParams());
        sys.run();
    }
    cfg.tracePath = all;
    cfg.analyze = true;
    cfg.persistMode = PersistMode::Epoch;
    NdpSystem sys(cfg);
    workloads::ReplicationWorkload w(sys, smallParams());
    sys.run();

    const std::string bytes = fileBytes(all);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, fileBytes(alone));
    ASSERT_NE(sys.durability(), nullptr);
    EXPECT_EQ(sys.durability()->walTrace(), trace::readTraceFile(all));
    ASSERT_NE(sys.analyzer(), nullptr);
    EXPECT_TRUE(sys.analyzer()->finished());
    EXPECT_TRUE(sys.analyzer()->report().clean());
    std::remove(alone.c_str());
    std::remove(all.c_str());
}

// --------------------------------------------------------------------
// Crash lifecycle
// --------------------------------------------------------------------

TEST(Durability, CrashInjectionFreezesTheDurableImage)
{
    // Find a mid-run tick from a clean reference, then crash there.
    Tick end = 0;
    std::uint64_t cleanRecords = 0;
    {
        NdpSystem ref(smallCfg(Scheme::SynCron, PersistMode::Eager));
        workloads::ReplicationWorkload w(ref, smallParams());
        ref.run();
        end = ref.elapsed();
        cleanRecords = ref.durability()->appended();
    }
    ASSERT_GT(end, Tick{2});

    SystemConfig cfg = smallCfg(Scheme::SynCron, PersistMode::Eager);
    cfg.crashAtTick = end / 2;
    NdpSystem sys(cfg);
    workloads::ReplicationWorkload w(sys, smallParams());
    sys.run();
    EXPECT_TRUE(sys.crashed());
    EXPECT_LE(sys.elapsed(), cfg.crashAtTick);

    const PersistedImage img = sys.durability()->snapshot();
    EXPECT_GT(img.crashTick, Tick{0});
    EXPECT_LT(img.durable(), cleanRecords)
        << "a mid-run crash must capture a strict WAL prefix";
    EXPECT_EQ(img.appended, img.durable())
        << "eager mode never has a staged tail to lose";
}

TEST(Durability, EpochCrashLosesOnlyTheStagedTail)
{
    // A huge epoch means nothing flushes before the crash: everything
    // appended is still volatile, and the image must say so.
    Tick end = 0;
    {
        NdpSystem ref(smallCfg(Scheme::SynCron, PersistMode::Eager));
        workloads::ReplicationWorkload w(ref, smallParams());
        ref.run();
        end = ref.elapsed();
    }
    SystemConfig cfg =
        smallCfg(Scheme::SynCron, PersistMode::Epoch, 100000);
    cfg.crashAtTick = end / 2;
    NdpSystem sys(cfg);
    workloads::ReplicationWorkload w(sys, smallParams());
    sys.run();
    ASSERT_TRUE(sys.crashed());
    const PersistedImage img = sys.durability()->snapshot();
    EXPECT_GT(img.appended, img.durable())
        << "the staged tail must be reported as lost";
    EXPECT_EQ(img.durable(), 0u);
}

// --------------------------------------------------------------------
// Recovery engine
// --------------------------------------------------------------------

TEST(RecoveryEngine, RejectsShapeMismatch)
{
    const PersistedImage img = sampleImage();
    trace::Trace ref = img.log;
    ref.numUnits = 4; // image says 2
    const RecoveryResult rr = RecoveryEngine(img, ref).recover();
    EXPECT_FALSE(rr.violations.empty());
}

TEST(RecoveryEngine, RejectsNonPrefixRecords)
{
    PersistedImage img = sampleImage();
    const trace::Trace ref = img.log;
    // The durable stream diverges from the reference: deterministic
    // simulation guarantees a strict prefix, so this is corruption.
    img.log.records[1].core = 5;
    const RecoveryResult rr = RecoveryEngine(img, ref).recover();
    EXPECT_FALSE(rr.violations.empty());
}

// --------------------------------------------------------------------
// End-to-end crash-injection sweeps
// --------------------------------------------------------------------

TEST(CrashSweep, SynCronEagerRecoversAtEveryBoundary)
{
    const harness::CrashSweepResult r = harness::runCrashSweep(
        smallCfg(Scheme::SynCron, PersistMode::Eager), smallParams());
    EXPECT_GT(r.injections, 0u);
    EXPECT_GT(r.referenceRecords, 0u);
    EXPECT_TRUE(r.passed()) << r.violations.size() << " violations; first: "
                            << r.violations.front();
}

TEST(CrashSweep, CentralEagerRecoversAtEveryBoundary)
{
    const harness::CrashSweepResult r = harness::runCrashSweep(
        smallCfg(Scheme::Central, PersistMode::Eager), smallParams());
    EXPECT_GT(r.injections, 0u);
    EXPECT_TRUE(r.passed()) << r.violations.size() << " violations; first: "
                            << r.violations.front();
}

TEST(CrashSweep, SynCronEpochRecoversWithStagedLoss)
{
    // Epoch mode loses the staged tail at each crash point; recovery
    // must still reach the reference final state from the shorter
    // durable prefix (the rollback cut just moves further back).
    const harness::CrashSweepResult r = harness::runCrashSweep(
        smallCfg(Scheme::SynCron, PersistMode::Epoch, 4), smallParams(),
        2);
    EXPECT_GT(r.injections, 0u);
    EXPECT_TRUE(r.passed()) << r.violations.size() << " violations; first: "
                            << r.violations.front();
}

} // namespace
} // namespace syncron::durability
