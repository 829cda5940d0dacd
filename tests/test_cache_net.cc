/**
 * @file
 * Unit tests for the L1 cache model and the interconnect (M/D/1
 * estimator, crossbar, inter-unit links, message routing), including
 * bit-exactness of the hoisted message-path costs against reference
 * copies of their original formulas.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "net/crossbar.hh"
#include "net/link.hh"
#include "net/md1.hh"
#include "system/machine.hh"

namespace syncron {
namespace {

TEST(Cache, HitAfterFill)
{
    SystemStats stats;
    cache::Cache l1({}, stats);
    EXPECT_FALSE(l1.access(0x1000, false).hit);
    EXPECT_TRUE(l1.access(0x1000, false).hit);
    EXPECT_TRUE(l1.access(0x1020, false).hit); // same line
    EXPECT_EQ(stats.l1Hits, 2u);
    EXPECT_EQ(stats.l1Misses, 1u);
}

TEST(Cache, LruEvictionWithinSet)
{
    SystemStats stats;
    cache::CacheParams params;
    cache::Cache l1(params, stats);
    const std::uint32_t setStride =
        l1.numSets() * params.lineBytes; // same set, different tags
    l1.access(0, false);
    l1.access(setStride, false);
    l1.access(0, false);              // 0 is now MRU
    l1.access(2 * setStride, false);  // evicts setStride (LRU)
    EXPECT_TRUE(l1.contains(0));
    EXPECT_FALSE(l1.contains(setStride));
    EXPECT_TRUE(l1.contains(2 * setStride));
}

TEST(Cache, DirtyVictimReportsWriteback)
{
    SystemStats stats;
    cache::CacheParams params;
    cache::Cache l1(params, stats);
    const std::uint32_t setStride = l1.numSets() * params.lineBytes;
    l1.access(0, true); // dirty
    l1.access(setStride, false);
    const auto res = l1.access(2 * setStride, false); // evicts line 0
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.victimAddr, 0u);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    SystemStats stats;
    cache::Cache l1({}, stats);
    l1.access(0x40, true);
    EXPECT_TRUE(l1.invalidate(0x40));
    EXPECT_FALSE(l1.contains(0x40));
    EXPECT_FALSE(l1.invalidate(0x40)); // already gone
}

TEST(Md1, DelayGrowsWithUtilization)
{
    net::Md1Estimator md1(1000); // 1 ns service
    // Sparse arrivals: negligible queueing.
    Tick t = 0;
    for (int i = 0; i < 200; ++i)
        md1.onArrival(t += 100000);
    const Tick sparse = md1.currentDelay();
    // Dense arrivals approaching saturation.
    for (int i = 0; i < 500; ++i)
        md1.onArrival(t += 1100);
    const Tick dense = md1.currentDelay();
    EXPECT_GT(dense, sparse);
    EXPECT_LE(md1.rho(), 0.95);
}

TEST(Crossbar, LatencyScalesWithMessageSize)
{
    SystemStats stats;
    net::Crossbar xbar({}, stats);
    const Tick small = xbar.unloadedLatency(128);
    const Tick big = xbar.unloadedLatency(512 + 8);
    EXPECT_GT(big, small);
}

TEST(Crossbar, ArrivalsAreMonotonic)
{
    SystemStats stats;
    net::Crossbar xbar({}, stats);
    Tick last = 0;
    // Burst then quiet: the M/D/1 estimate shrinks, but deliveries must
    // never reorder (FIFO clamp).
    for (int i = 0; i < 50; ++i) {
        const Tick a = xbar.transfer(i * 100, 140);
        EXPECT_GE(a, last);
        last = a;
    }
    EXPECT_EQ(stats.xbarMessages, 50u);
    EXPECT_GT(stats.bytesInsideUnits, 0u);
}

TEST(Link, FlightLatencyAndSerialization)
{
    SystemStats stats;
    net::LinkParams params;
    net::LinkFabric links(4, params, stats);
    const Tick t = links.send(0, 0, 1, 64);
    // 20 cycles * 400 ps + serialization (~5 ns) + 40 ns flight.
    EXPECT_GT(t, params.flightTicks);
    EXPECT_EQ(stats.bytesAcrossUnits, 64u);

    // Back-to-back messages on one direction serialize.
    const Tick t2 = links.send(0, 0, 1, 64);
    EXPECT_GT(t2, t);
    // The reverse direction is independent.
    const Tick t3 = links.send(0, 1, 0, 64);
    EXPECT_LT(t3, t2);
}

TEST(Machine, SameUnitVsCrossUnitRouting)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 4, 15);
    Machine machine(cfg);
    const Tick local = machine.routeMessage(0, 0, 0, 140);
    const Tick remote = machine.routeMessage(0, 0, 2, 140);
    EXPECT_LT(local, remote);
    EXPECT_GT(machine.stats().linkMessages, 0u);
}

TEST(Machine, MemoryAccessRoundTrip)
{
    SystemConfig cfg = SystemConfig::make(Scheme::Ideal, 4, 15);
    Machine machine(cfg);
    const Addr localAddr = machine.addrSpace().allocIn(0, 64);
    const Addr remoteAddr = machine.addrSpace().allocIn(3, 64);
    const Tick localDone = machine.memoryAccess(0, 0, localAddr, false, 8);
    const Tick remoteDone =
        machine.memoryAccess(0, 0, remoteAddr, false, 8);
    EXPECT_LT(localDone, remoteDone)
        << "remote accesses must pay the inter-unit links";
}

// -- Hoisted message-path costs vs. their original formulas ----------

/** The M/D/1 estimator before the zero-wait short-circuit, verbatim:
 *  every onArrival() evaluates the formula and caches rho. */
class ReferenceMd1
{
  public:
    explicit ReferenceMd1(Tick serviceTicks)
        : mu_(1.0 / static_cast<double>(serviceTicks)), twoMu_(2.0 * mu_)
    {}

    Tick
    onArrival(Tick now)
    {
        if (!seen_) {
            seen_ = true;
            last_ = now;
            return 0;
        }
        const double inter = static_cast<double>(now - last_);
        last_ = now;
        if (avg_ <= 0.0)
            avg_ = inter > 0.0 ? inter : 1.0;
        else
            avg_ = (1.0 - kAlpha) * avg_ + kAlpha * std::max(inter, 1.0);
        const double lambda = 1.0 / avg_;
        rho_ = std::min(lambda / mu_, kMaxRho);
        return currentDelay();
    }

    double rho() const { return rho_; }
    double avgInterArrival() const { return avg_; }

    Tick
    currentDelay() const
    {
        if (rho_ <= 0.0)
            return 0;
        return static_cast<Tick>(rho_ / (twoMu_ * (1.0 - rho_)));
    }

  private:
    static constexpr double kAlpha = 0.05;
    static constexpr double kMaxRho = 0.95;
    double mu_;
    double twoMu_;
    double rho_ = 0.0;
    Tick last_ = 0;
    bool seen_ = false;
    double avg_ = 0.0;
};

/**
 * Arrival ticks for service time @p s that visit every regime the
 * crossbar feeds the estimator: dense traffic (rho at the clamp), gaps
 * straddling the S*(S+2) zero-wait bound, sparse traffic, same-tick
 * bursts, and runs of backward nows (which wrap the inter-arrival).
 */
std::vector<Tick>
mixedArrivals(Tick s, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    const Tick bound = s * (s + 2);
    std::vector<Tick> out;
    out.reserve(n);
    Tick now = Tick{1} << 40;
    while (out.size() < n) {
        const auto regime = rng.below(5);
        const std::size_t len = rng.range(50, 1500);
        for (std::size_t i = 0; i < len && out.size() < n; ++i) {
            switch (regime) {
              case 0: now += rng.range(0, 2 * s); break;
              case 1: now += rng.range(bound / 2, 2 * bound + 1); break;
              case 2: now += rng.range(bound, 8 * bound + 1); break;
              case 3: now += rng.chance(0.8) ? 0 : rng.range(1, s); break;
              default:
                now -= rng.chance(0.3) ? rng.range(1, 4 * s) : 0;
                break;
            }
            out.push_back(now);
        }
    }
    return out;
}

TEST(Md1, ShortCircuitMatchesReferenceBitForBit)
{
    for (const Tick s : {Tick{1}, Tick{2}, Tick{1000}, Tick{1600}}) {
        net::Md1Estimator md1(s);
        ReferenceMd1 ref(s);
        const double bound = static_cast<double>(s * (s + 2));
        std::size_t above = 0;
        std::size_t below = 0;
        std::size_t nonzero = 0;
        const std::vector<Tick> arrivals = mixedArrivals(s, 100000, s);
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            const Tick got = md1.onArrival(arrivals[i]);
            const Tick want = ref.onArrival(arrivals[i]);
            ASSERT_EQ(got, want) << "S=" << s << " arrival " << i;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(md1.rho()),
                      std::bit_cast<std::uint64_t>(ref.rho()))
                << "S=" << s << " arrival " << i;
            ASSERT_EQ(md1.currentDelay(), ref.currentDelay())
                << "S=" << s << " arrival " << i;
            (ref.avgInterArrival() > bound ? above : below) += 1;
            nonzero += want != 0;
        }
        // Both sides of the short-circuit bound, and the slow path's
        // non-zero waits, must actually have been exercised.
        EXPECT_GT(above, arrivals.size() / 10) << "S=" << s;
        EXPECT_GT(below, arrivals.size() / 10) << "S=" << s;
        EXPECT_GT(nonzero, 0u) << "S=" << s;
    }
}

/** The crossbar cost formula before hoisting, with a reference M/D/1. */
class ReferenceCrossbar
{
  public:
    explicit ReferenceCrossbar(const net::CrossbarParams &p)
        : p_(p), md1_(serviceTicks(p.flitBits))
    {}

    std::uint32_t
    flits(std::uint32_t bits) const
    {
        return (bits + p_.flitBits - 1) / p_.flitBits;
    }

    Tick
    serviceTicks(std::uint32_t bits) const
    {
        return static_cast<Tick>(p_.arbiterCycles + p_.hops * p_.hopCycles
                                 + flits(bits))
               * p_.cyclePeriod;
    }

    Tick
    transfer(Tick start, std::uint32_t bits)
    {
        Tick arrival = start + md1_.onArrival(start) + serviceTicks(bits);
        arrival = std::max(arrival, last_);
        last_ = arrival;
        return arrival;
    }

  private:
    net::CrossbarParams p_;
    ReferenceMd1 md1_;
    Tick last_ = 0;
};

TEST(Crossbar, HoistedCostsMatchReferenceFormula)
{
    std::vector<net::CrossbarParams> variants(5);
    variants[1].flitBits = 1;
    variants[2].flitBits = 96;
    variants[2].arbiterCycles = 2;
    variants[3].flitBits = 256;
    variants[3].hops = 3;
    variants[3].hopCycles = 2;
    variants[4].flitBits = 4096;
    variants[4].cyclePeriod = 1000;
    Rng rng(7);
    for (const net::CrossbarParams &p : variants) {
        SystemStats stats;
        net::Crossbar xbar(p, stats);
        ReferenceCrossbar ref(p);
        Tick start = Tick{1} << 30;
        for (std::uint32_t bits = 1; bits <= 4096; ++bits) {
            ASSERT_EQ(xbar.unloadedLatency(bits), ref.serviceTicks(bits))
                << "flitBits=" << p.flitBits << " bits=" << bits;
            const std::uint64_t flitsBefore = stats.xbarFlits;
            start = rng.chance(0.2) ? start - rng.below(3000)
                                    : start + rng.below(3000);
            ASSERT_EQ(xbar.transfer(start, bits), ref.transfer(start, bits))
                << "flitBits=" << p.flitBits << " bits=" << bits;
            ASSERT_EQ(stats.xbarFlits - flitsBefore, ref.flits(bits))
                << "flitBits=" << p.flitBits << " bits=" << bits;
        }
    }
}

/** Serialization ticks as the link formula defines them. */
Tick
referenceSerialTicks(const net::LinkParams &p, std::uint32_t bytes)
{
    const double ns = static_cast<double>(bytes) / p.gbPerSec;
    return static_cast<Tick>(ns * 1000.0) + 1;
}

TEST(Link, HoistedCostsMatchReferenceFormula)
{
    Rng rng(11);
    for (const double gb : {12.8, 25.6, 3.2, 1.0, 7.3}) {
        net::LinkParams p;
        p.gbPerSec = gb;
        SystemStats stats;
        net::LinkFabric links(3, p, stats);
        const Tick ctrl = static_cast<Tick>(p.ctrlCycles) * p.cyclePeriod;
        std::array<Tick, 9> busy{};
        Tick start = 0;
        for (std::uint32_t bytes = 0; bytes <= 320; ++bytes) {
            const Tick serial = referenceSerialTicks(p, bytes);
            ASSERT_EQ(links.unloadedLatency(bytes),
                      ctrl + serial + p.flightTicks)
                << "gb/s=" << gb << " bytes=" << bytes;
            // A send on a random direction: controller, then queue
            // behind that direction's previous message.
            const auto from = static_cast<UnitId>(rng.below(3));
            const auto to = static_cast<UnitId>((from + 1 + rng.below(2)) % 3);
            start += rng.below(20000);
            Tick &b = busy[from * 3 + to];
            b = std::max(start + ctrl, b) + serial;
            ASSERT_EQ(links.send(start, from, to, bytes), b + p.flightTicks)
                << "gb/s=" << gb << " bytes=" << bytes;
        }
    }
}

} // namespace
} // namespace syncron
