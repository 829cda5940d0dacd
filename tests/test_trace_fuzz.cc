/**
 * @file
 * Deterministic mutation fuzzing of every container decoder.
 *
 * Seed images — a `SYNCTRC` trace of each scenario family and the v2
 * `SYNCDUR` image (which embeds a `SYNCTRC` container) of a short
 * crash-injected run — are mutated exhaustively: every truncation,
 * every single-bit flip, and, at the start of each varint field, the
 * field re-encoded one byte longer (same value, non-canonical), eleven
 * bytes long (past 64 bits), and replaced by 2^64-1. The field walk
 * treats the `SYNCDUR` image's embedded `SYNCTRC` magic as eight 1-byte
 * varints (no magic byte has its high bit set). Every input goes to
 * MappedTraceReader through a memfd and to durability::readImage. Each
 * must decode it or throw std::runtime_error — any other exception, a
 * crash, or a sanitizer report fails the test.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "durability/image.hh"
#include "durability/manager.hh"
#include "system/system.hh"
#include "trace/format.hh"
#include "trace/mmap_reader.hh"
#include "trace/scenario.hh"
#include "trace/varint.hh"
#include "workloads/replication/replication.hh"

#include "scratch_file.hh"

namespace syncron::trace {
namespace {

/**
 * Silences stderr while alive: every rejection also prints its fatal
 * line there, and the fuzzer produces tens of thousands of them.
 */
class QuietStderr
{
  public:
    QuietStderr() : saved_(::dup(STDERR_FILENO))
    {
        std::fflush(stderr);
        if (std::FILE *null = std::fopen("/dev/null", "w")) {
            ::dup2(::fileno(null), STDERR_FILENO);
            std::fclose(null);
        }
    }
    ~QuietStderr()
    {
        std::fflush(stderr);
        if (saved_ >= 0) {
            ::dup2(saved_, STDERR_FILENO);
            ::close(saved_);
        }
    }

  private:
    int saved_;
};

std::optional<Trace>
viaMapping(const ScratchFile &file, const std::string &bytes)
{
    try {
        return MappedTraceReader(file.write(bytes)).materialize();
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
}

std::optional<durability::PersistedImage>
viaImageReader(const std::string &bytes)
{
    std::istringstream is(bytes);
    try {
        return durability::readImage(is);
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
}

std::string
varint(std::uint64_t v)
{
    std::ostringstream os;
    VarintWriter out(os);
    out.varint(v);
    out.flush();
    return os.str();
}

/**
 * Calls @p f with every mutation of @p image described in the file
 * comment. Both containers are an 8-byte magic followed only by
 * varints, so field starts are found by walking varints after it; a
 * `SYNCDUR` image's embedded `SYNCTRC` magic walks as eight 1-byte
 * varints.
 */
void
forEachMutation(const std::string &image,
                const std::function<void(const std::string &)> &f)
{
    for (std::size_t len = 0; len < image.size(); ++len)
        f(image.substr(0, len));
    for (std::size_t bit = 0; bit < image.size() * 8; ++bit) {
        std::string m = image;
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
        f(m);
    }
    std::size_t start = 8;
    while (start < image.size()) {
        std::size_t end = start;
        while ((static_cast<unsigned char>(image[end]) & 0x80) != 0)
            ++end;
        ++end; // one past the varint's last byte
        const std::string head = image.substr(0, start);
        const std::string tail = image.substr(end);
        std::string longer = image.substr(start, end - start);
        longer.back() = static_cast<char>(longer.back() | 0x80);
        longer.push_back('\0');
        f(head + longer + tail);
        f(head + std::string(10, '\x80') + '\0' + tail);
        f(head + varint(~0ULL) + tail);
        start = end;
    }
}

struct Tally
{
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
};

/** Runs every decoder on @p bytes and checks the contract. */
void
checkInput(const ScratchFile &file, const std::string &bytes, Tally &tally)
{
    const bool asTrace = viaMapping(file, bytes).has_value();
    const bool asImage = viaImageReader(bytes).has_value();
    if (asTrace || asImage)
        ++tally.accepted;
    else
        ++tally.rejected;
}

void
fuzz(const ScratchFile &file, const std::string &image, const char *name)
{
    SCOPED_TRACE(name);
    Tally tally;
    QuietStderr quiet;
    forEachMutation(image, [&](const std::string &bytes) {
        checkInput(file, bytes, tally);
    });
    // Sanity: the mutations reach both outcomes.
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

TEST(ContainerFuzz, EveryScenarioFamilyTrace)
{
    ScratchFile file;
    for (ScenarioFamily family : kAllScenarioFamilies) {
        ScenarioSpec spec;
        spec.family = family;
        spec.numUnits = 2;
        spec.clientCoresPerUnit = 2;
        spec.opsPerCore = 4;
        const Trace t = ScenarioGenerator(spec).generate();
        std::ostringstream os;
        TraceWriter(os).write(t);
        const std::string image = os.str();

        // The seed itself decodes to the same trace.
        ASSERT_EQ(viaMapping(file, image), t);
        fuzz(file, image, scenarioFamilyName(family));
    }
}

TEST(ContainerFuzz, CrashInjectedDurabilityImage)
{
    using durability::PersistMode;
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 2);
    cfg.persistMode = PersistMode::Epoch;
    cfg.persistEpochOps = 4;
    workloads::ReplicationParams params;
    params.epochs = 2;
    params.opsPerEpoch = 2;

    Tick end = 0;
    {
        NdpSystem ref(cfg);
        workloads::ReplicationWorkload w(ref, params);
        ref.run();
        end = ref.elapsed();
    }
    cfg.crashAtTick = end / 2;
    NdpSystem sys(cfg);
    workloads::ReplicationWorkload w(sys, params);
    sys.run();
    ASSERT_TRUE(sys.crashed());
    const durability::PersistedImage img = sys.durability()->snapshot();
    ASSERT_FALSE(img.log.records.empty());

    std::ostringstream os;
    durability::writeImage(os, img);
    const std::string image = os.str();
    ASSERT_EQ(viaImageReader(image), img);
    fuzz(ScratchFile(), image, "SYNCDUR");
}

} // namespace
} // namespace syncron::trace
