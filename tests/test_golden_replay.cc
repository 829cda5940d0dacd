/**
 * @file
 * Golden outputs of the trace-replay path: the five scenario families
 * of trace::benchScenarioSpecs(0.25) replayed on Central with trace
 * capture and the live analyzer attached, the same layers perfbench's
 * trace_replay workload runs. Each family pins an FNV-1a hash of its
 * capture file's bytes and of the run's SystemStats (every scalar
 * counter, the per-OpKind latency histograms and the elapsed ticks),
 * and must analyze with zero findings.
 *
 * The constants were computed before the observer path went flat
 * (address maps, reused grant buffers, one buffered encoder), which
 * changed no simulated output. A later change to them is a model
 * change and must say why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "analysis/live.hh"
#include "system/system.hh"
#include "trace/replay.hh"
#include "trace/scenario.hh"

namespace syncron::trace {
namespace {

/** 64-bit FNV-1a over @p n bytes at @p p, continuing from @p h. */
std::uint64_t
fnv1a(const void *p, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1aU64(std::uint64_t v, std::uint64_t h)
{
    return fnv1a(&v, sizeof(v), h);
}

/** Hash of every simulated statistic of @p sys's finished run. */
std::uint64_t
statsFingerprint(NdpSystem &sys)
{
    const SystemStats &st = sys.machine().stats();
    std::uint64_t h = fnv1aU64(sys.elapsed(), 0xcbf29ce484222325ULL);
    st.forEach([&h](const std::string &name, double v) {
        h = fnv1a(name.data(), name.size(), h);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = fnv1aU64(bits, h);
    });
    for (const SyncOpLatency &l : st.syncLatency) {
        for (std::uint64_t v :
             {l.count, l.totalTicks, l.minTicks, l.maxTicks})
            h = fnv1aU64(v, h);
        for (std::uint64_t b : l.hist)
            h = fnv1aU64(b, h);
    }
    return h;
}

struct Golden
{
    std::uint64_t captureHash;
    std::uint64_t statsHash;
};

/** Pinned per family, in kAllScenarioFamilies order. */
constexpr Golden kGolden[] = {
    {0xde0b65486c209af3ULL, 0x606d0df772063b97ULL}, // zipf
    {0x44f8179caccdf979ULL, 0x502adbac728ceef9ULL}, // bursty
    {0x5946de76f6fdb0beULL, 0xa35ff14ecf51b479ULL}, // phased
    {0xd27b2ccd5e931143ULL, 0x9730f4a1a60fe175ULL}, // readers
    {0x850887ed11134244ULL, 0xa43eed9e8dd70074ULL}, // replication
};

TEST(GoldenReplay, CentralReplayWithCaptureAndAnalyzerIsPinned)
{
    const auto specs = benchScenarioSpecs(0.25);
    ASSERT_EQ(specs.size(), std::size(kGolden));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string family = scenarioFamilyName(specs[i].family);
        const Trace t = ScenarioGenerator(specs[i]).generate();
        SystemConfig cfg = replayConfig(t, Scheme::Central);
        cfg.tracePath = "test_golden_replay_" + family + ".trc";
        cfg.analyze = true;
        cfg.analyzeFatal = false;

        NdpSystem sys(cfg);
        Replayer replayer(t);
        replayer.install(sys);
        sys.run();
        EXPECT_EQ(replayer.opsReplayed(), t.records.size()) << family;
        ASSERT_NE(sys.analyzer(), nullptr);
        EXPECT_EQ(sys.analyzer()->report().findings.size(), 0u) << family;

        std::ifstream in(cfg.tracePath, std::ios::binary);
        const std::string bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
        std::remove(cfg.tracePath.c_str());
        ASSERT_FALSE(bytes.empty()) << family;

        EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), kGolden[i].captureHash)
            << family << " capture bytes (" << bytes.size() << " B)";
        EXPECT_EQ(statsFingerprint(sys), kGolden[i].statsHash)
            << family << " SystemStats";
    }
}

} // namespace
} // namespace syncron::trace
