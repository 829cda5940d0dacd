/**
 * @file
 * Configuration of the simulated NDP system — the paper's Table 5 plus
 * the synchronization-scheme selection used throughout the evaluation.
 */

#ifndef SYNCRON_SYSTEM_CONFIG_HH
#define SYNCRON_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "cache/cache.hh"
#include "common/types.hh"
#include "durability/pm_model.hh"
#include "mem/dram.hh"
#include "net/crossbar.hh"
#include "net/link.hh"

namespace syncron {

/**
 * Synchronization scheme under evaluation (Section 5, "Comparison
 * Points", plus the design-ablation variants of Section 6.7).
 */
enum class Scheme
{
    Ideal,        ///< zero-overhead synchronization
    Central,      ///< one server NDP core for the whole system (Tesseract)
    Hier,         ///< one server NDP core per unit (Gao et al. / pLock)
    SynCron,      ///< the paper's mechanism: hierarchical SEs with STs
    SynCronFlat,  ///< ablation: cores message the Master SE directly
    /// Overflow ablations (Fig. 23): MiSAR-style abort to a software
    /// fallback instead of SynCron's integrated hardware scheme.
    SynCronCentralOvrfl,
    SynCronDistribOvrfl,
};

/** Short scheme name for table output. */
const char *schemeName(Scheme scheme);

/**
 * Inverse of schemeName(): parses a scheme from its string name.
 * @return false when @p name matches no scheme (out is untouched)
 */
bool schemeFromName(std::string_view name, Scheme &out);

/** Full system configuration (defaults = Table 5, 2.5D HBM config). */
struct SystemConfig
{
    // -- Topology
    unsigned numUnits = 4;       ///< Table 5: 4 stacks / NDP units
    unsigned coresPerUnit = 16;  ///< Table 5: 16 in-order cores per unit

    /**
     * Client cores per unit actually running the workload. One core per
     * unit is reserved (server in Central/Hier, disabled under SynCron)
     * so all schemes use the same thread-level parallelism (Section 5:
     * "15 per NDP unit").
     */
    unsigned clientCoresPerUnit = 15;

    // -- Memory technology
    mem::DramTech dramTech = mem::DramTech::Hbm;

    // -- Interconnect
    net::CrossbarParams xbar{};
    net::LinkParams link{};

    // -- Caches
    cache::CacheParams l1{};
    double l1HitPj = 23.0;  ///< Table 5: 23 pJ per hit
    double l1MissPj = 47.0; ///< Table 5: 47 pJ per miss

    // -- Synchronization Engine (Table 5 "Synchronization Engine" row)
    std::uint32_t stEntries = 64;          ///< ST: 64 entries
    std::uint32_t indexingCounters = 256;  ///< 256 counters (8 LSB index)
    std::uint32_t seServiceCycles = 12;    ///< 12 SPU cycles per message
    Tick seCyclePeriod = 1000;             ///< SPU @1 GHz -> 1000 ps

    /**
     * Software message-handling cost on a server NDP core (Central /
     * Hier), in core cycles, excluding the cache/memory access for the
     * variable itself.
     *
     * chosen: not given by the paper. 40 cycles of mailbox read, decode,
     * dispatch, waiting-list update, and response composition on a
     * 2.5 GHz in-order core (16 ns) plus the L1 read-modify-write
     * (3.2 ns on hits) makes a server ~60% slower per message than an SE
     * (12 ns), matching Fig. 10's SynCron-vs-Hier gap at the
     * 200-instruction interval.
     */
    std::uint32_t serverSwOverheadCycles = 40;

    // -- Scheme / workload
    Scheme scheme = Scheme::SynCron;

    /**
     * Backend selected by registry name; empty = derive from scheme.
     * Lets harnesses/CLIs/configs select any backend registered with
     * sync::BackendRegistry, including out-of-tree ones with no Scheme
     * enumerator.
     */
    std::string backendName;

    /**
     * When non-empty, the system captures every synchronization
     * operation (trace::TraceCapture installed on the SyncApi) and
     * writes the varint trace file here when the run completes.
     * Benches expose this as --trace-out.
     */
    std::string tracePath;

    /**
     * Runs the sync-correctness analyses (analysis::LiveAnalyzer —
     * lockset race checker, lock-order deadlock analyzer, misuse
     * linter) over the operation stream. Composes with tracePath and
     * persistMode: the analyzer, the capture and the WAL are observers
     * in the one SyncApi::addObserver() list. Benches expose this as
     * --analyze.
     */
    bool analyze = false;

    /**
     * With analyze set: fatal() when the run produced findings (the
     * default — a clean stream is the contract). Tests that seed
     * defects on purpose clear this and inspect the report instead.
     */
    bool analyzeFatal = true;

    std::uint64_t seed = 1;

    // -- Durability (crash-consistent SE state; src/durability/)
    /**
     * Persist granularity for the SE-state write-ahead log. Off models
     * no durability (the paper's baseline); Eager persists every
     * completion through the modeled PM write before the requester may
     * observe it; Epoch stages completions and flushes every
     * persistEpochOps records (a crash loses the staged tail).
     */
    durability::PersistMode persistMode = durability::PersistMode::Off;

    /** Epoch mode: completions staged per WAL flush (>= 1). */
    std::uint32_t persistEpochOps = 64;

    /** Modeled persistent-memory write path (latency + energy). */
    durability::PmParams pm{};

    /**
     * Deterministic crash injection: when non-zero, the event loop
     * stops before any event at or past this tick would run and the
     * machine is torn down mid-run; the persisted image survives for
     * recovery (durability::RecoveryEngine). 0 = never crash.
     */
    Tick crashAtTick = 0;

    // -- Sharded simulation (conservative PDES; sim/sharded_kernel.hh)
    /**
     * Shards the one simulation is split into. Units are split into
     * contiguous blocks, one per shard, each owning a private
     * EventQueue; the shards are stepped through conservative windows
     * (lookahead derived from the link + crossbar latencies) on one
     * host thread, and cross-unit traffic crosses shard boundaries as
     * keyed deliveries (Machine::postMessage). Results are
     * bit-identical to simShards = 1. Clamped to numUnits; collapses to
     * 1 when the selected backend is not shard-safe
     * (sync::BackendRegistry).
     */
    unsigned simShards = 1;

    /** Field by field: equal configs build the same machine. */
    friend bool operator==(const SystemConfig &,
                           const SystemConfig &) = default;

    /** Total number of client cores in the system. */
    unsigned
    totalClientCores() const
    {
        return numUnits * clientCoresPerUnit;
    }

    /** Total number of cores (client + reserved). */
    unsigned totalCores() const { return numUnits * coresPerUnit; }

    /**
     * Dense index (0..totalClientCores()-1, unit-major) of the client
     * core with system-wide id @p core. Encodes the one core-ID layout
     * invariant — NdpSystem assigns id `unit * coresPerUnit + local`
     * to client core `local` of each unit — shared by NdpSystem core
     * construction, trace capture, and trace replay; keep them in sync
     * through this helper. Only valid for client cores
     * (core % coresPerUnit < clientCoresPerUnit).
     */
    unsigned
    denseClientIndex(CoreId core) const
    {
        return (core / coresPerUnit) * clientCoresPerUnit
               + (core % coresPerUnit);
    }

    /** Checks internal consistency; fatal()s on user error. */
    void validate() const;

    /** Convenience: a config with @p n units and @p scheme. */
    static SystemConfig make(Scheme scheme, unsigned numUnits = 4,
                             unsigned clientCoresPerUnit = 15);
};

} // namespace syncron

#endif // SYNCRON_SYSTEM_CONFIG_HH
