/**
 * @file
 * Zero-copy trace reading and corpus tests: the writeTraceFile ->
 * MappedTraceReader round trip on every scenario family, the
 * allocation-free record loop (the zero-copy contract), the full
 * rejection surface at mmap boundaries (truncation at every byte, bad
 * magic/version, trailing bytes, dangling refs, empty and short
 * files), and corpus enumeration/validation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "trace/corpus.hh"
#include "trace/format.hh"
#include "trace/mmap_reader.hh"
#include "trace/scenario.hh"

#include "counting_alloc.hh"
#include "scratch_file.hh"

namespace syncron::trace {
namespace {

std::string
encode(const Trace &t)
{
    std::ostringstream os;
    TraceWriter(os).write(t);
    return os.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << "cannot write " << path;
}

/** Maps @p bytes from a memfd and fully validates them. */
void
mmapDecode(const std::string &bytes)
{
    const ScratchFile file;
    MappedTraceReader(file.write(bytes)).validateAll();
}

/** A small but fully populated scenario trace. */
Trace
familyTrace(ScenarioFamily family)
{
    ScenarioSpec spec;
    spec.family = family;
    spec.numUnits = 2;
    spec.clientCoresPerUnit = 3;
    spec.opsPerCore = 8;
    return ScenarioGenerator(spec).generate();
}

/** RAII temp file that cleans up after the test. */
class TempFile
{
  public:
    explicit TempFile(std::string path) : path_(std::move(path)) {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(MmapReader, RoundTripsEveryFamilyThroughAFile)
{
    for (ScenarioFamily family : kAllScenarioFamilies) {
        const Trace t = familyTrace(family);
        TempFile file(std::string("test_mmap_")
                      + scenarioFamilyName(family) + ".trc");
        writeTraceFile(t, file.path());

        MappedTraceReader reader(file.path());
        EXPECT_EQ(reader.numUnits(), t.numUnits);
        EXPECT_EQ(reader.clientCoresPerUnit(), t.clientCoresPerUnit);
        EXPECT_EQ(reader.recordCount(), t.records.size());
        EXPECT_EQ(reader.primitives(), t.primitives);

        // materialize() and readTraceFile() must both give back the
        // trace that was written.
        EXPECT_EQ(reader.materialize(), t)
            << scenarioFamilyName(family);
        EXPECT_EQ(readTraceFile(file.path()), t)
            << scenarioFamilyName(family);

        // The validation walk counts exactly the trace's op mix.
        EXPECT_EQ(reader.validateAll(), t.opCounts())
            << scenarioFamilyName(family);
    }
}

TEST(MmapReader, CursorYieldsRecordsInOrder)
{
    const Trace t = familyTrace(ScenarioFamily::Replication);
    TempFile file("test_mmap_cursor.trc");
    writeTraceFile(t, file.path());

    MappedTraceReader reader(file.path());
    auto cursor = reader.records();
    TraceRecord rec;
    std::size_t i = 0;
    while (cursor.next(rec)) {
        ASSERT_LT(i, t.records.size());
        EXPECT_EQ(rec, t.records[i]) << "record " << i;
        ++i;
    }
    EXPECT_EQ(i, t.records.size());
    EXPECT_EQ(cursor.index(), t.records.size());
    // The cursor is exhausted; further calls keep returning false.
    EXPECT_FALSE(cursor.next(rec));
}

TEST(MmapReader, RecordLoopAllocatesNothing)
{
    // The zero-copy contract: the cursor decodes each record from views
    // into the mapping, so the steady-state record loop makes no heap
    // allocation on any family's trace.
    const ScratchFile file;
    for (ScenarioFamily family : kAllScenarioFamilies) {
        const Trace t = familyTrace(family);
        const MappedTraceReader reader(file.write(encode(t)));
        auto cursor = reader.records();
        TraceRecord rec;
        std::size_t n = 0;
        const std::uint64_t before = allocCount();
        while (cursor.next(rec))
            ++n;
        const std::uint64_t allocs = allocCount() - before;
        EXPECT_EQ(allocs, 0u) << scenarioFamilyName(family);
        EXPECT_EQ(n, t.records.size()) << scenarioFamilyName(family);
    }
}

TEST(MmapReader, RejectsTruncationAtEveryBoundary)
{
    const Trace t = familyTrace(ScenarioFamily::ZipfLock);
    const std::string good = encode(t);
    ASSERT_FALSE(t.records.empty());

    // Every proper prefix must be rejected — header truncation at
    // open, record truncation during the walk, never a silent accept.
    for (std::size_t len = 0; len < good.size();
         len += (len < 64 ? 1 : 97)) {
        EXPECT_THROW(mmapDecode(good.substr(0, len)), std::runtime_error)
            << "prefix of " << len << " bytes accepted";
    }
}

TEST(MmapReader, RejectsBadMagicAndVersions)
{
    const std::string good = encode(familyTrace(ScenarioFamily::BurstyLock));

    std::string badMagic = good;
    badMagic[0] = 'X';
    EXPECT_THROW(mmapDecode(badMagic), std::runtime_error);

    // Version varint sits right after the 8-byte magic.
    std::string badVersion = good;
    badVersion[8] = '\x7f';
    EXPECT_THROW(mmapDecode(badVersion), std::runtime_error);

    // v1 must be rejected with the recapture hint.
    std::string v1 = good;
    v1[8] = '\x01';
    try {
        mmapDecode(v1);
        FAIL() << "a version-1 trace was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("recapture"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MmapReader, RejectsTrailingBytes)
{
    const std::string good =
        encode(familyTrace(ScenarioFamily::ReaderSemaphore));
    EXPECT_THROW(mmapDecode(good + "junk"), std::runtime_error);
}

TEST(MmapReader, RejectsDanglingReferences)
{
    // The writer serializes whatever it is given; the reader is the
    // validation boundary.
    Trace t = familyTrace(ScenarioFamily::ZipfLock);
    ASSERT_FALSE(t.records.empty());

    Trace badPrim = t;
    badPrim.records[0].prim =
        static_cast<std::uint32_t>(badPrim.primitives.size());
    EXPECT_THROW(mmapDecode(encode(badPrim)), std::runtime_error);

    Trace badCore = t;
    badCore.records[0].core = badCore.numClientCores();
    EXPECT_THROW(mmapDecode(encode(badCore)), std::runtime_error);
}

TEST(MmapReader, RejectsEmptyAndShortFiles)
{
    const ScratchFile file;
    EXPECT_THROW(MappedTraceReader reader(file.write("")),
                 std::runtime_error);

    // Shorter than the magic.
    EXPECT_THROW(MappedTraceReader reader(file.write("SYN")),
                 std::runtime_error);

    EXPECT_THROW(MappedTraceReader reader("no_such_trace_file.trc"),
                 std::runtime_error);
}

// --------------------------------------------------------------------
// Corpus
// --------------------------------------------------------------------

/** RAII temp directory removed recursively after the test. */
class TempDir
{
  public:
    explicit TempDir(std::string path) : path_(std::move(path))
    {
        std::filesystem::create_directory(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(Corpus, EnumeratesSortedAndValidates)
{
    TempDir dir("test_corpus_dir");
    const Trace a = familyTrace(ScenarioFamily::ZipfLock);
    const Trace b = familyTrace(ScenarioFamily::PhasedBarrierLock);
    // Written out of name order: enumeration must sort by name, not
    // by directory order.
    writeTraceFile(b, dir.path() + "/b.trc");
    writeTraceFile(a, dir.path() + "/a.trc");
    // A corrupt member and a non-trace file.
    writeBytes(dir.path() + "/c.trc", "not a trace at all");
    writeBytes(dir.path() + "/notes.txt", "ignored");

    const Corpus corpus = Corpus::open(dir.path());
    ASSERT_EQ(corpus.size(), 3u);
    EXPECT_EQ(corpus.files()[0].name, "a.trc");
    EXPECT_EQ(corpus.files()[1].name, "b.trc");
    EXPECT_EQ(corpus.files()[2].name, "c.trc");
    EXPECT_GT(corpus.totalBytes(), 0u);

    const auto statuses = corpus.validate();
    ASSERT_EQ(statuses.size(), 3u);
    EXPECT_TRUE(statuses[0].ok);
    EXPECT_EQ(statuses[0].records, a.records.size());
    EXPECT_EQ(statuses[0].opCounts, a.opCounts());
    EXPECT_TRUE(statuses[1].ok);
    EXPECT_EQ(statuses[1].records, b.records.size());
    EXPECT_FALSE(statuses[2].ok);
    EXPECT_FALSE(statuses[2].error.empty());
}

TEST(Corpus, RejectsMissingAndEmptyDirectories)
{
    EXPECT_THROW(Corpus::open("no_such_corpus_dir"),
                 std::runtime_error);

    TempDir dir("test_corpus_empty");
    EXPECT_THROW(Corpus::open(dir.path()), std::runtime_error);

    EXPECT_TRUE(Corpus::isDirectory(dir.path()));
    EXPECT_FALSE(Corpus::isDirectory("no_such_corpus_dir"));
}

} // namespace
} // namespace syncron::trace
