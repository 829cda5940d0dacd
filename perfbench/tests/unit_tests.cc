/**
 * @file
 * Unit tests of the benchmark's own arithmetic: span self time,
 * nearest-rank percentiles, the host-metric estimator, and the
 * host-speed calibration.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bench.hh"

using namespace perfbench;

namespace {

Span
span(const char *name, std::uint64_t a, std::uint64_t b, int parent)
{
    return Span{name, a, b, parent, 0};
}

} // namespace

TEST(SelfTime, LeafIsItsDuration)
{
    const std::vector<Span> s = {span("root", 10, 50, -1)};
    EXPECT_EQ(selfTimes(s), (std::vector<std::uint64_t>{40}));
}

TEST(SelfTime, ChildrenAreSubtracted)
{
    // root [0,100): children [10,30) and [50,60) -> self 70.
    const std::vector<Span> s = {span("root", 0, 100, -1),
                                 span("a", 10, 30, 0), span("b", 50, 60, 0)};
    EXPECT_EQ(selfTimes(s), (std::vector<std::uint64_t>{70, 20, 10}));
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // [10,40) and [30,50) overlap: union [10,50) = 40.
    const std::vector<Span> s = {span("root", 0, 100, -1),
                                 span("a", 10, 40, 0), span("b", 30, 50, 0)};
    EXPECT_EQ(selfTimes(s)[0], 60u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent)
{
    // An aggregate child longer than its parent covers it fully, and
    // never drives the self time negative.
    const std::vector<Span> s = {span("root", 0, 100, -1),
                                 span("run", 20, 60, 0),
                                 span("obs", 20, 200, 1)};
    const auto self = selfTimes(s);
    EXPECT_EQ(self[0], 60u); // 100 - [20,60)
    EXPECT_EQ(self[1], 0u);  // fully covered by the clipped child
    EXPECT_EQ(self[2], 180u);
}

TEST(SelfTime, GrandchildrenDoNotReachTheRoot)
{
    const std::vector<Span> s = {span("root", 0, 100, -1),
                                 span("mid", 0, 50, 0),
                                 span("leaf", 0, 50, 1)};
    const auto self = selfTimes(s);
    EXPECT_EQ(self[0], 50u);
    EXPECT_EQ(self[1], 0u);
    EXPECT_EQ(self[2], 50u);
}

TEST(SelfTime, SummedByName)
{
    const std::vector<Span> s = {span("root", 0, 100, -1),
                                 span("sim.run", 0, 30, 0),
                                 span("sim.run", 40, 50, 0)};
    const auto byName = selfTimeByName(s);
    EXPECT_EQ(byName.at("sim.run"), 40u);
    EXPECT_EQ(byName.at("root"), 60u);
}

TEST(SelfTime, TracerNestsAndAggregates)
{
    Tracer tr(true);
    {
        ScopedSpan root(tr, "root", -1);
        ScopedSpan child(tr, "child", 3);
        tr.addClosed("agg", child.index(), 0, 5, 3);
    }
    const std::vector<Span> spans = tr.take();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(spans[1].cell, 3);
    EXPECT_TRUE(tr.spans().empty());

    Tracer off(false);
    {
        ScopedSpan s(off, "x", 0);
        EXPECT_EQ(s.index(), -1);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(NearestRank, RankIsCeilOfQTimesN)
{
    EXPECT_EQ(nearestRankIndex(100, 0.5), 50u);
    EXPECT_EQ(nearestRankIndex(101, 0.5), 51u);
    EXPECT_EQ(nearestRankIndex(1000, 0.99), 990u); // no float creep
    EXPECT_EQ(nearestRankIndex(1, 0.99), 1u);
    EXPECT_EQ(nearestRankIndex(10, 0.0), 1u);
    EXPECT_EQ(nearestRankIndex(10, 1.0), 10u);
}

TEST(NearestRank, PicksAnObservedValue)
{
    std::vector<Tick> v;
    for (Tick i = 1; i <= 1000; ++i)
        v.push_back(i * 10);
    EXPECT_EQ(nearestRank(v, 0.5), 5000u);
    EXPECT_EQ(nearestRank(v, 0.99), 9900u);
    EXPECT_EQ(nearestRank(v, 1.0), 10000u);
    EXPECT_EQ(nearestRank({}, 0.99), 0u);
    EXPECT_EQ(nearestRank({7}, 0.99), 7u);
}

TEST(NearestRank, P99NeedsTenSamplesBeyondIt)
{
    // The benchmark reports p99 only where at least ten samples lie
    // beyond it: 1000 samples is the smallest such count.
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_LT(samplesBeyond(999, 0.99), 10u);
    EXPECT_EQ(samplesBeyond(1440, 0.99), 14u);
    EXPECT_EQ(samplesBeyond(100, 0.5), 50u);
}

TEST(Median, OddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BestQuarterMean, AveragesTheBestQuarter)
{
    // 8 values: the best quarter is 2 values.
    const std::vector<double> v = {5, 1, 8, 3, 7, 2, 6, 4};
    EXPECT_DOUBLE_EQ(bestQuarterMean(v, true), 7.5);  // 8, 7
    EXPECT_DOUBLE_EQ(bestQuarterMean(v, false), 1.5); // 1, 2
    EXPECT_DOUBLE_EQ(bestQuarterMean({4, 9, 1}, true), 9.0);
    EXPECT_DOUBLE_EQ(bestQuarterMean({}, true), 0.0);
}

TEST(Calibrate, TakesMeasurableHostTime)
{
    // The host-speed divisor of the end-to-end host metrics: it must
    // never read 0, or those metrics would be infinite.
    const HostTime t = calibrate();
    EXPECT_GT(t.cpuNs, 0u);
    EXPECT_GT(t.wallNs, 0u);
}
