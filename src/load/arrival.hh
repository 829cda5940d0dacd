/**
 * @file
 * Arrival-process specifications and precomputed per-core arrival
 * schedules for open-loop load generation.
 *
 * Every workload the repo had before this subsystem is closed-loop:
 * cores issue the next operation as soon as the previous one completes,
 * so the offered load is whatever the backend sustains and tail latency
 * under overload is unobservable. An open-loop run instead fixes the
 * arrival process up front: a LoadSpec (kind + rate + seed) is expanded
 * once into a run-immutable ArrivalSchedule — one sorted (tick, lock)
 * table per client core — and the OpenLoopWorkload issues operations at
 * those ticks regardless of completion.
 *
 * The expansion is a pure function of (spec, core count): every random
 * decision flows through a per-core seeded syncron::Rng, so schedules
 * are bit-identical across hosts, job counts, and --sim-shards values
 * (the PR 8 sharded-determinism discipline: shared state is immutable
 * before the run starts; per-core state is only touched by that core's
 * coroutines).
 */

#ifndef SYNCRON_LOAD_ARRIVAL_HH
#define SYNCRON_LOAD_ARRIVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace syncron::load {

/** Arrival processes an open-loop run can offer. */
enum class ArrivalKind
{
    Fixed,   ///< deterministic inter-arrival gap (rate exactly)
    Poisson, ///< exponential inter-arrival gaps (the M/D/1 assumption)
    Bursty,  ///< on/off: back-to-back bursts separated by long idles
    Diurnal, ///< Poisson with a sinusoidally modulated rate (day/night)
};

/** Printable name ("fixed", "poisson", ...). */
const char *arrivalKindName(ArrivalKind kind);

/** What to do with an arrival whose scheduled tick passed while every
 *  in-flight window slot was busy. */
enum class OverloadPolicy
{
    Queue, ///< issue late, account the queueing delay
    Drop,  ///< shed it, count a drop
};

/** Printable name ("queue" / "drop"). */
const char *overloadPolicyName(OverloadPolicy policy);

/**
 * Seeded description of one open-loop load point. Parsed from the
 * harness's --load= option (see fromString) or built directly by
 * benches sweeping offered rates.
 */
struct LoadSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /// Mean offered arrivals per core per simulated microsecond.
    double ratePerUs = 1.0;
    /// Arrivals scheduled per core.
    unsigned opsPerCore = 64;
    /// Bounded in-flight window: operations a core may have outstanding.
    unsigned window = 4;
    OverloadPolicy policy = OverloadPolicy::Queue;
    /// Fine-grained locks the arrivals target (chosen per-arrival by
    /// the seeded stream, homed round-robin across units).
    unsigned numLocks = 64;
    /// Critical-section hold time between acquire and release, ticks.
    Tick holdTicks = 0;
    std::uint64_t seed = 1;

    // -- Bursty parameters
    unsigned burstLen = 8;       ///< arrivals per on-burst
    double burstGapFactor = 50.0; ///< idle gap = factor * mean gap

    // -- Diurnal parameters
    unsigned diurnalPhases = 2;   ///< full sine periods over the run
    double diurnalAmplitude = 0.75; ///< rate swing fraction, in [0, 1)

    bool operator==(const LoadSpec &) const = default;

    /** Maximum accepted in-flight window. */
    static constexpr unsigned kMaxWindow = 64;

    /**
     * Parses "<kind>[:k=v[,k=v...]]" — e.g.
     * "poisson:rate=2.5,ops=64,window=4,locks=32,hold=500,policy=drop,
     * seed=3". Keys: rate, ops, window, locks, hold (ns), policy, seed,
     * burst, gapx, phases, amp. Returns false and sets @p error on a
     * malformed spec; @p out is untouched on failure.
     */
    static bool fromString(const std::string &text, LoadSpec &out,
                           std::string &error);

    /** Canonical spec string (parseable by fromString). */
    std::string toString() const;

    /** Mean inter-arrival gap in ticks implied by ratePerUs. */
    double meanGapTicks() const;
};

/** One scheduled operation: acquire+release of the lock at lockIdx. */
struct Arrival
{
    Tick tick = 0;
    std::uint32_t lockIdx = 0;

    bool
    operator==(const Arrival &other) const
    {
        return tick == other.tick && lockIdx == other.lockIdx;
    }
};

/** Run-immutable expansion of a LoadSpec over a machine's client cores. */
struct ArrivalSchedule
{
    /// perCore[i] is core i's schedule, sorted by tick ascending.
    std::vector<std::vector<Arrival>> perCore;

    /** Total arrivals over all cores (the offered operation count). */
    std::uint64_t totalArrivals() const;

    /** Latest scheduled tick across all cores (0 when empty). */
    Tick horizon() const;
};

/**
 * Expands @p spec into per-core schedules for @p numCores cores. Pure:
 * same (spec, numCores) always yields the same tables.
 */
ArrivalSchedule buildArrivalSchedule(const LoadSpec &spec,
                                     unsigned numCores);

} // namespace syncron::load

#endif // SYNCRON_LOAD_ARRIVAL_HH
