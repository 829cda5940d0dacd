/**
 * @file
 * Unit tests for common utilities: bit helpers, RNG determinism, unit
 * conversions, stats aggregation, and the address-keyed open-addressing
 * map (against std::unordered_map as the oracle).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/addr_map.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace syncron {
namespace {

TEST(Bits, BasicOperations)
{
    EXPECT_TRUE(bitSet(0b1010, 1));
    EXPECT_FALSE(bitSet(0b1010, 0));
    EXPECT_EQ(withBit(0, 5), 32u);
    EXPECT_EQ(withoutBit(0b111, 1), 0b101u);
    EXPECT_EQ(popCount(0xFF), 8u);
    EXPECT_EQ(lowestSetBit(0b1000), 3u);
    EXPECT_EQ(lowestSetBit(1), 0u);
}

TEST(Bits, PowerOfTwoAndLog)
{
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(63));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_EQ(log2Exact(256), 8u);
    EXPECT_EQ(bitsOf(0xABCD, 7, 4), 0xCu);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs = differs || (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        const auto v = rng.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Units, ClockConversions)
{
    EXPECT_EQ(kCoreClock.period(), 400u);  // 2.5 GHz
    EXPECT_EQ(kSpuClock.period(), 1000u);  // 1 GHz
    EXPECT_EQ(kCoreClock.cycles(10), 4000u);
    EXPECT_EQ(nsToTicks(40), 40000u);
    EXPECT_DOUBLE_EQ(ticksToNs(1500), 1.5);
    EXPECT_EQ(kCoreClock.nextEdge(401), 800u);
    EXPECT_EQ(kCoreClock.nextEdge(800), 800u);
}

TEST(Stats, AggregationAndOccupancy)
{
    SystemStats a, b;
    a.l1Hits = 10;
    a.stMaxOccupied = 5;
    a.stOccupancyIntegral = 100;
    a.stOccupancyTime = 50;
    b.l1Hits = 7;
    b.stMaxOccupied = 9;
    b.stOccupancyIntegral = 20;
    b.stOccupancyTime = 10;
    a += b;
    EXPECT_EQ(a.l1Hits, 17u);
    EXPECT_EQ(a.stMaxOccupied, 9u);
    EXPECT_DOUBLE_EQ(a.avgStOccupancy(), 120.0 / 60.0);

    int fields = 0;
    a.forEach([&](const std::string &, double) { ++fields; });
    EXPECT_GT(fields, 20);
}

/** Checks that @p map holds exactly @p oracle's contents. */
void
expectSameContents(const common::AddrMap<std::uint32_t> &map,
                   const std::unordered_map<Addr, std::uint32_t> &oracle)
{
    ASSERT_EQ(map.size(), oracle.size());
    for (const auto &[key, value] : oracle) {
        const std::uint32_t *got = map.find(key);
        ASSERT_NE(got, nullptr) << "key " << key;
        ASSERT_EQ(*got, value) << "key " << key;
    }
}

TEST(AddrMap, MatchesUnorderedMapOracleAcrossGrowth)
{
    common::AddrMap<std::uint32_t> map;
    std::unordered_map<Addr, std::uint32_t> oracle;
    Rng rng(42);
    const std::size_t initialSlots = map.slotCount();
    // Line-aligned addresses in a few unit windows (the simulator's key
    // shape), drawn from a pool small enough that finds hit and erases
    // succeed, and large enough that the table grows several times.
    auto randomKey = [&] {
        return (rng.below(4) << 40) + rng.below(4096) * kCacheLineBytes;
    };
    for (int op = 0; op < 200000; ++op) {
        const Addr key = randomKey();
        switch (rng.below(4)) {
          case 0:
          case 1: {
            const auto v = static_cast<std::uint32_t>(rng.next());
            map[key] = v;
            oracle[key] = v;
            break;
          }
          case 2: {
            const std::uint32_t *got = map.find(key);
            const auto it = oracle.find(key);
            ASSERT_EQ(got != nullptr, it != oracle.end()) << "op " << op;
            if (got != nullptr) {
                ASSERT_EQ(*got, it->second) << "op " << op;
            }
            ASSERT_EQ(map.contains(key), it != oracle.end());
            break;
          }
          default:
            ASSERT_EQ(map.erase(key), oracle.erase(key) == 1) << "op " << op;
            break;
        }
        ASSERT_EQ(map.size(), oracle.size()) << "op " << op;
        if (op % 20000 == 0)
            expectSameContents(map, oracle);
    }
    expectSameContents(map, oracle);
    EXPECT_GT(map.slotCount(), 16 * initialSlots) << "never grew";

    // Drain completely: every erase must keep the rest reachable.
    std::vector<Addr> keys;
    for (const auto &kv : oracle)
        keys.push_back(kv.first);
    for (const Addr key : keys) {
        ASSERT_TRUE(map.erase(key));
        oracle.erase(key);
        ASSERT_EQ(map.size(), oracle.size());
    }
    EXPECT_TRUE(map.empty());
    expectSameContents(map, oracle);
}

TEST(AddrMap, BackwardShiftAcrossTheArrayEnd)
{
    common::AddrMap<std::uint32_t> probe;
    const std::size_t slots = probe.slotCount();
    // Keys homed in the last two slots and the first one: inserted
    // together they form one probe run that wraps from the array's end
    // to its start.
    std::vector<Addr> keys;
    auto collect = [&](std::size_t home, int want) {
        for (Addr a = kCacheLineBytes; want > 0; a += kCacheLineBytes) {
            if (probe.homeSlot(a) == home) {
                keys.push_back(a);
                --want;
            }
        }
    };
    collect(slots - 2, 2);
    collect(slots - 1, 3);
    collect(0, 2);
    ASSERT_LE(2 * keys.size(), slots) << "must fit without growing";

    // Every erase order of the wrapped run keeps the survivors reachable.
    std::vector<std::size_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0);
    int permutations = 0;
    do {
        common::AddrMap<std::uint32_t> map;
        std::unordered_map<Addr, std::uint32_t> oracle;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            map[keys[i]] = static_cast<std::uint32_t>(i);
            oracle[keys[i]] = static_cast<std::uint32_t>(i);
        }
        ASSERT_EQ(map.slotCount(), slots);
        for (const std::size_t i : order) {
            ASSERT_TRUE(map.erase(keys[i]));
            ASSERT_FALSE(map.erase(keys[i]));
            oracle.erase(keys[i]);
            expectSameContents(map, oracle);
        }
        ++permutations;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(permutations, 5040);
}

} // namespace
} // namespace syncron
