/**
 * @file
 * Directory-based MESI coherence model — used ONLY by the motivation
 * experiments (paper Table 1 and Fig. 2), which quantify why
 * coherence-based synchronization scales poorly on NDP systems. The
 * baseline NDP architecture itself has no hardware coherence
 * (Section 2.1); this module simulates the hypothetical alternative.
 *
 * Model: every cache line has a home unit (by address) with a directory
 * entry (state + owner + sharer set) held in SRAM at the memory
 * controller. Cores have private L1s that may cache shared read-write
 * data under MESI. Reads/writes/atomic RMWs are timed through the
 * Machine's crossbars, links, and DRAM: misses consult the directory,
 * fetch from DRAM or the remote owner (cache-to-cache transfer), and
 * writes invalidate sharers. Value shadows make atomic RMW sequences
 * (test-and-set, fetch-and-add) semantically exact: updates apply in
 * directory-serialization order.
 */

#ifndef SYNCRON_COHERENCE_MESI_HH
#define SYNCRON_COHERENCE_MESI_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "sim/process.hh"
#include "system/machine.hh"

namespace syncron::coherence {

/** One coherent multi-core system layered over a Machine. */
class MesiSystem
{
  public:
    /**
     * @param machine platform (units/links/DRAM reused as NUMA fabric)
     * @param numCores total cores; core c lives in unit
     *                 c / (numCores / numUnits) (even spread)
     */
    MesiSystem(Machine &machine, unsigned numCores);

    /** Unit (NUMA socket) of @p core. */
    UnitId unitOf(unsigned core) const { return coreUnit_[core]; }

    /**
     * Timed coherent read; returns the completion tick.
     * @param start issue tick (>= now)
     */
    Tick read(unsigned core, Addr addr, Tick start);

    /** Timed coherent write (RFO + invalidations). */
    Tick write(unsigned core, Addr addr, Tick start);

    /**
     * Atomic swap on the word at @p addr.
     * @return {completion tick, previous value}
     */
    std::pair<Tick, std::uint64_t> rmwSwap(unsigned core, Addr addr,
                                           std::uint64_t newValue,
                                           Tick start);

    /** Atomic fetch-and-add. @return {completion tick, previous value} */
    std::pair<Tick, std::uint64_t> rmwFetchAdd(unsigned core, Addr addr,
                                               std::uint64_t delta,
                                               Tick start);

    /** Host-visible current value of the word at @p addr. */
    std::uint64_t value(Addr addr) const;

    /** Directly sets a word (initialization). */
    void setValue(Addr addr, std::uint64_t v);

    /** L1 hit latency in ticks (for spin-loop pacing). */
    Tick hitLatency() const;

    unsigned numCores() const
    {
        return static_cast<unsigned>(coreUnit_.size());
    }

    /** The platform's event queue (spin loops pace themselves on it). */
    sim::EventQueue &machineEq() { return machine_.eq(0); }

  private:
    enum class DirState : std::uint8_t { Invalid, Shared, Modified };

    struct DirEntry
    {
        DirState state = DirState::Invalid;
        unsigned owner = 0;           ///< valid when Modified
        std::uint64_t sharers = 0;    ///< bit per core
        Tick busyUntil = 0;           ///< serializes requests per line
    };

    DirEntry &dirEntry(Addr line);
    /** True when @p core can hit locally given directory knowledge. */
    bool localHit(unsigned core, Addr line, bool needExclusive) const;
    /** Common miss path; returns completion and updates directory. */
    Tick missPath(unsigned core, Addr line, bool needExclusive,
                  Tick start);

    Machine &machine_;
    std::vector<UnitId> coreUnit_;
    std::vector<std::unique_ptr<cache::Cache>> l1_;
    std::unordered_map<Addr, DirEntry> dir_;
    std::unordered_map<Addr, std::uint64_t> values_;
};

/** A TTAS (test-and-test-and-set) spin lock over MESI. */
sim::Process ttasLockLoop(MesiSystem &sys, unsigned core, Addr lockAddr,
                          unsigned ops, unsigned csCycles,
                          std::uint64_t *acquired);

/**
 * A hierarchical ticket lock over MESI: a per-socket ticket lock plus a
 * global ticket lock taken by the per-socket winner (HTL of
 * Mellor-Crummey & Scott, as used in the paper's Table 1).
 */
struct HierTicketLock
{
    Addr globalNext;    ///< global ticket dispenser
    Addr globalServing; ///< global serving counter
    std::vector<Addr> localNext;    ///< per-socket dispensers
    std::vector<Addr> localServing; ///< per-socket serving counters

    /** Allocates the lock's lines (dispenser/serving per socket). */
    static HierTicketLock make(Machine &machine);
};

sim::Process hierTicketLockLoop(MesiSystem &sys, HierTicketLock &lock,
                                unsigned core, unsigned ops,
                                unsigned csCycles,
                                std::uint64_t *acquired);

} // namespace syncron::coherence

#endif // SYNCRON_COHERENCE_MESI_HH
