/**
 * @file
 * The SynCron synchronization mechanism (paper Sections 3-4): one
 * Synchronization Engine (SE) per NDP unit, each with a Synchronization
 * Processing Unit (SPU), a Synchronization Table (ST), and indexing
 * counters, coordinating locks, barriers, semaphores, and condition
 * variables with a hierarchical message-passing protocol and a
 * hardware-only overflow scheme.
 *
 * The same protocol implementation also realizes the paper's Hier
 * baseline: with StationKind::ServerCore, each per-unit station is an NDP
 * core acting as a software server — identical message flow, but each
 * message costs software-processing cycles plus an L1/DRAM access for the
 * variable's tracking state instead of the SE's 12 SPU cycles, and there
 * is no ST capacity limit (state lives in memory through the server's
 * cache). This mirrors how the paper contrasts the two designs: the
 * hierarchy is shared; the station microarchitecture differs.
 *
 * Overflow handling (Section 4.3) is selectable for the Fig. 23 ablation:
 *   - Integrated:    SynCron's hardware-only scheme (syncronVar record in
 *     the Master SE's local memory + overflow message opcodes).
 *   - MisarCentral / MisarDistrib: MiSAR-style abort to an alternative
 *     software solution (one global server core / one server core per
 *     unit), with abort/switch-back notification traffic.
 *
 * The four configurations register in engine.cc as "SynCron", "Hier",
 * "SynCron_CentralOvrfl" and "SynCron_DistribOvrfl"; name() is derived
 * from the station kind and the overflow policy.
 *
 * Under eager durability (SystemConfig::persistMode) the ST, the
 * indexing counters and the syncronVar path charge their state-image
 * writes to the PM counters directly.
 */

#ifndef SYNCRON_SYNCRON_ENGINE_HH
#define SYNCRON_SYNCRON_ENGINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache.hh"
#include "common/addr_map.hh"
#include "core/core.hh"
#include "sim/process.hh"
#include "sync/backend.hh"
#include "sync/flat_state.hh"
#include "sync/message.hh"
#include "syncron/indexing_counters.hh"
#include "syncron/sync_table.hh"
#include "system/machine.hh"

namespace syncron::engine {

/** Microarchitecture of the per-unit synchronization station. */
enum class StationKind
{
    SyncronSe,  ///< SynCron SE: SPU @1 GHz, 12-cycle service, ST-limited
    ServerCore, ///< Hier baseline: software server on an NDP core
};

/** Overflow-handling policy (Fig. 23 ablation). */
enum class OverflowPolicy
{
    Integrated,   ///< SynCron's hardware-only scheme (Section 4.3)
    MisarCentral, ///< abort to one global software server
    MisarDistrib, ///< abort to one software server per NDP unit
};

/** Construction options. */
struct EngineOptions
{
    StationKind station = StationKind::SyncronSe;
    OverflowPolicy overflow = OverflowPolicy::Integrated;
};

/** The hierarchical SynCron/Hier backend. */
class SynCronBackend : public sync::SyncBackend
{
  public:
    SynCronBackend(Machine &machine, EngineOptions opts = {});
    ~SynCronBackend() override;

    void request(core::Core &requester, const sync::SyncRequest &req,
                 sim::Gate *gate) override;

    /**
     * Batch issue with SE message coalescing: every batch member's
     * first hop targets the requesting core's local SE, so eligible
     * batches (>= 2 ops, not under the MiSAR ablation) travel as one
     * core -> SE message of batchReqBits(n) bits carrying per-op
     * records; the SPU then services the members in batch order.
     * Accounted in SystemStats::batchedOps / messagesSaved.
     */
    void requestBatch(core::Core &requester,
                      std::span<const sync::SyncRequest> reqs,
                      std::span<sim::Gate *const> gates) override;

    bool idleVar(Addr var) const override;
    void releaseVar(Addr var) override;

    /** "Hier", or "SynCron" plus the MiSAR overflow suffix. */
    const char *name() const override;

    /** Closes ST occupancy integrals (call once after the run). */
    void finalizeStats();

    // -- Introspection for tests and the harness ------------------------
    std::uint32_t stOccupied(UnitId unit) const;
    std::uint32_t counterValue(UnitId unit, Addr var) const;
    /** Sum of overflowed requests across stations (quiescence only). */
    std::uint64_t overflowedRequests() const;
    /** Sum of issued requests across stations (quiescence only). */
    std::uint64_t totalRequests() const;

  private:
    /**
     * Master-side in-memory synchronization state (the syncronVar record
     * of Fig. 9). coreBits[j] is Waitlist[j]: core-granular waiting bits
     * for overflowed unit j (and the master's own local cores);
     * unit-granular requests from non-overflowed SEs live in
     * st.globalWaitBits.
     */
    struct MemVar
    {
        StEntry st;
        std::vector<std::uint16_t> coreBits;
        std::uint16_t overflowInfo = 0;
        /// Net acquire-type messages serviced via memory that the Master
        /// SE's indexing counter still reflects (flushed at cleanup).
        std::uint32_t outstanding = 0;
        explicit MemVar(unsigned numUnits) : coreBits(numUnits, 0) {}
        bool idle() const;
    };

    /**
     * Per-unit synchronization station (SE or software server). All of a
     * station's state — including the in-memory overflow records for
     * variables homed in its unit and the in-flight accounting for its
     * local cores' requests — is touched only from the shard owning the
     * unit, which is what makes the backend shardable.
     */
    struct Station
    {
        UnitId unit = 0;
        SyncTable table;
        IndexingCounters counters;
        Tick busyUntil = 0;
        /// ServerCore mode: the server's private L1.
        std::unique_ptr<cache::Cache> l1;
        /// ServerCore mode: local shadow tracking addresses per variable.
        std::unordered_map<Addr, Addr> shadow;
        /// ServerCore mode: deterministic bump region for shadow records
        /// (reserved at construction; a shared allocator would make the
        /// addresses depend on cross-shard allocation order).
        Addr shadowNext = 0;
        Addr shadowEnd = 0;
        /// syncronVar records for variables homed in this unit (only the
        /// master station of a variable services its memory path).
        std::unordered_map<Addr, MemVar> memVars;
        /// Core requests issued by this unit's cores but not yet consumed
        /// by the station (keeps idleVar() honest about messages still in
        /// flight; once the station handles a message the variable has
        /// resident state).
        common::AddrMap<std::uint32_t> inFlightLocal;
        std::uint64_t totalReqs = 0;
        std::uint64_t overflowedReqs = 0;
        /// Exact per-variable count of redirected acquire-type
        /// operations still outstanding at the Master SE. The hardware
        /// relies on the (aliased) indexing counters for this; aliasing
        /// there is only a performance hazard, but the model keeps an
        /// exact count so a variable never splits between a fresh ST
        /// entry here and in-memory state at the master.
        common::AddrMap<std::uint32_t> redirected;

        Station(UnitId u, std::uint32_t entries, std::uint32_t counters,
                SystemStats &stats, bool persistEager);

        void redirectedInc(Addr var) { ++redirected[var]; }
        void
        redirectedDec(Addr var)
        {
            std::uint32_t *n = redirected.find(var);
            if (n != nullptr && --*n == 0)
                redirected.erase(var);
        }
        bool hasRedirected(Addr var) const { return redirected.contains(var); }
    };

    /** How a message is serviced (Fig. 8 control flow). */
    enum class Route
    {
        Table,    ///< ST entry found or reserved
        Memory,   ///< master services via syncronVar in local memory
        Redirect, ///< non-master SE overflowed: forward to Master SE
    };

    /**
     * Who a syncronVar operation serves: core @c core of unit @c unit
     * (core-granular, Waitlist[unit]), or with @c core < 0 the whole
     * unit's SE (unit-granular, the global waiting list).
     */
    struct Requester
    {
        UnitId unit = 0;
        int core = -1;
        bool unitLevel() const { return core < 0; }
    };

    /** MiSAR-ablation software fallback server. */
    struct SoftServer
    {
        UnitId unit = 0;
        Tick busyUntil = 0;
        std::unique_ptr<cache::Cache> l1;
    };

    // -- Identity helpers ----------------------------------------------
    UnitId masterOf(Addr var) const { return mem::unitOfAddr(var); }
    bool isMaster(const Station &s, Addr var) const;
    CoreId globalCoreId(UnitId unit, unsigned local) const;
    /** A barrier of @p total cores runs the two-level protocol (one
     *  aggregated arrival per SE) when it spans every client core of a
     *  multi-unit machine. */
    bool hierBarrier(std::uint64_t total) const;

    // -- Transport ------------------------------------------------------
    /** Counts @p req at its core's station, registers its gate, and
     *  encodes it as a local-opcode message (Fig. 5). */
    sync::SyncMessage admit(core::Core &requester,
                            const sync::SyncRequest &req, sim::Gate *gate);
    /** Station -> station (global / overflow opcodes). */
    void sendToStation(UnitId from, UnitId to, sync::SyncMessage msg,
                       Tick depart);
    /** Global-opcode message from @p s, stamped with its unit id. */
    void sendGlobal(Station &s, UnitId to, sync::Op op, Addr var,
                    Tick depart, std::uint64_t info = 0);
    /** Station -> core grant: opens the core's pending gate for @p var. */
    void grantCore(UnitId seUnit, CoreId core, Addr var, Tick depart);

    // -- Pending-gate bookkeeping ----------------------------------------
    /**
     * The gate-matching key of an acquire-type request. A core may keep
     * several operations in flight, so pending gates are matched by
     * (core, key) in FIFO order. cond_wait completes through the
     * re-acquisition of its associated lock (the grant the core finally
     * observes names the lock, not the condition variable), so its key
     * is the associated lock's address.
     */
    static Addr gateKeyFor(const sync::SyncRequest &req);
    void addPendingGate(CoreId core, Addr key, sim::Gate *gate);
    /** Removes and returns the oldest pending gate for (core, key). */
    sim::Gate *takePendingGate(CoreId core, Addr key);

    // -- SPU scheduling --------------------------------------------------
    void receive(UnitId unit, sync::SyncMessage msg);
    void handle(Station &s, sync::SyncMessage msg);
    /** Station service latency excluding overflow memory accesses. */
    Tick baseServiceTicks(Station &s, Addr var);

    // -- Fig. 8 dispatch --------------------------------------------------
    /**
     * Sends @p m to the store that services it: its ST entry, the
     * master's syncronVar record, or (from an overflowed non-master SE)
     * the Master SE. The one decision point for every opcode.
     */
    void dispatch(Station &s, const sync::SyncMessage &m, Tick done);
    Route routeFor(Station &s, Addr var, bool acquireType, bool global);
    /** Lock acquire/release on behalf of @p localCore (cond-var path). */
    void internalLockOp(Station &s, sync::Op op, unsigned localCore,
                        Addr lock, Tick done);
    /** Non-master sem_post / cond_signal / cond_broadcast: served by a
     *  local waiter, or forwarded without reserving an ST entry. */
    void combineLocally(Station &s, const sync::SyncMessage &m, Tick done);

    // -- ST-resident handlers (entry found or reserved by dispatch) -------
    void onLockAcquireLocal(Station &s, StEntry &e,
                            const sync::SyncMessage &m, Tick done);
    void onLockReleaseLocal(Station &s, StEntry &e,
                            const sync::SyncMessage &m, Tick done);
    void onLockAcquireGlobal(Station &s, StEntry &e,
                             const sync::SyncMessage &m, Tick done);
    void onLockGrantGlobal(Station &s, const sync::SyncMessage &m,
                           Tick done);
    void masterNextGrant(Station &s, StEntry &e, Tick done);
    void localGrantNext(Station &s, StEntry &e, Tick done);

    void onBarrierWaitLocal(Station &s, StEntry &e,
                            const sync::SyncMessage &m, Tick done);
    void onBarrierWaitGlobal(Station &s, StEntry &e,
                             const sync::SyncMessage &m, Tick done);
    void onBarrierDepartGlobal(Station &s, const sync::SyncMessage &m,
                               Tick done);
    void masterBarrierCheck(Station &s, StEntry &e, std::uint64_t total,
                            Tick done);
    void departLocalWaiters(Station &s, StEntry &e, Tick done);

    void onSemWaitLocal(Station &s, StEntry &e, const sync::SyncMessage &m,
                        Tick done);
    void onSemWaitGlobal(Station &s, StEntry &e, const sync::SyncMessage &m,
                         Tick done);
    void onSemGrantGlobal(Station &s, const sync::SyncMessage &m,
                          Tick done);
    void masterSemPost(Station &s, StEntry &e, Tick done);

    void onCondWaitLocal(Station &s, StEntry &e, const sync::SyncMessage &m,
                         Tick done);
    void onCondWaitGlobal(Station &s, StEntry &e,
                          const sync::SyncMessage &m, Tick done);
    void onCondGrantGlobal(Station &s, const sync::SyncMessage &m,
                           Tick done);
    void masterCondSignal(Station &s, StEntry &e, bool broadcast,
                          Tick done);

    // -- Overflow: integrated hardware scheme (overflow.cc) -------------
    void redirectOverflow(Station &s, const sync::SyncMessage &m,
                          Tick done);
    /**
     * Services @p m in the master's syncronVar record of its variable
     * (Fig. 9): creates the record, migrates a live ST entry into it
     * when an overflow opcode first reaches the master, pays the
     * record's read-modify-write, and applies the operation for the
     * requester the opcode names.
     */
    void memOp(Station &s, const sync::SyncMessage &m, Tick done);
    /** Adds @p r to the record's waiting lists. */
    static void memEnqueue(MemVar &v, Requester r);
    /**
     * Dequeues the next waiter: the master's local cores first (Section
     * 3.2's local priority), then the other units' cores, then waiting
     * SEs. Empty when nobody waits.
     */
    static std::optional<Requester> memNextWaiter(const Station &s,
                                                  MemVar &v);
    void memGrantTo(Station &s, MemVar &v, sync::Op grantOp, Requester to,
                    Tick done);
    void memMaybeCleanup(Station &s, Addr var, MemVar &v, Tick done);
    /** Timed syncronVar read-modify-write at the master's local memory. */
    Tick memVarAccess(Station &s, Addr var, Tick start);
    void onOverflowGrant(Station &s, const sync::SyncMessage &m,
                         Tick done);

    // -- Overflow: MiSAR-style ablation (overflow.cc) --------------------
    bool misarActive() const;
    /** True when @p var has no hardware state at any station. */
    bool misarCanEnter(Addr var) const;
    void misarEnter(Addr var, Tick when);
    /** Diverts a local-opcode message to the software fallback. */
    void misarDivertLocal(Station &s, const sync::SyncMessage &m,
                          Tick done);
    void misarRequest(core::Core &core, const sync::SyncRequest &req,
                      sim::Gate *gate);
    void misarProcess(SoftServer &server, const sync::SyncRequest &req,
                      CoreId core, sim::Gate *gate);
    void misarMaybeExit(Addr var, Tick when);
    SoftServer &softServerFor(Addr var);

    // -- Common helpers ---------------------------------------------------
    void maybeFree(Station &s, StEntry &e, Tick now);
    StEntry *entryOf(Station &s, Addr var);
    /** Cost of the station's state access in ServerCore mode. */
    Tick serverStateAccess(Station &s, Addr var, Tick start);

    /** One in-flight acquire-type operation awaiting its grant. */
    struct PendingGate
    {
        Addr key = 0;
        sim::Gate *gate = nullptr;
    };

    Machine &machine_;
    EngineOptions opts_;
    std::vector<std::unique_ptr<Station>> stations_;
    /// Pending gates per global core id, FIFO within a matching key —
    /// one entry per in-flight acquire-type operation (plural since the
    /// async submission api lets a core pipeline operations). Sized at
    /// construction; a core's slot is only touched from its own shard
    /// (requests are added there, and grants always come from the core's
    /// local station).
    std::vector<std::vector<PendingGate>> gates_;
    /// Eager durability: syncronVar writes charge the PM counters.
    bool persistEager_;

    // MiSAR ablation state
    std::unordered_set<Addr> misarVars_;
    /// Software operations issued but not yet applied at the fallback
    /// server, per variable. A variable may only leave software mode
    /// once these drain — otherwise a core could acquire in software
    /// and release in hardware.
    std::unordered_map<Addr, std::uint32_t> misarPending_;
    /// Software servicing cannot begin before the abort round trip to
    /// every participating core completes.
    std::unordered_map<Addr, Tick> misarReadyAt_;
    sync::FlatSyncState misarState_;
    std::vector<SoftServer> softServers_;
};

} // namespace syncron::engine

#endif // SYNCRON_SYNCRON_ENGINE_HH
