/**
 * @file
 * The simulated hardware platform: event queue(s), statistics, per-unit
 * crossbars and DRAM, inter-unit links, and the shared address space.
 *
 * Machine provides the two composite operations every agent (core, SE,
 * server core) uses:
 *   - routeMessage(): deliver a message between (possibly different)
 *     units through crossbar [+ link + crossbar];
 *   - memoryAccess(): a full uncached memory transaction — request
 *     message, DRAM access at the owning unit, response message.
 *
 * Sharded simulation (SystemConfig::simShards): units are split into
 * contiguous blocks, one per shard, each owning a private EventQueue; the
 * shards are windows stepped on one thread (sim/sharded_kernel.hh), and
 * every unit charges the machine's one SystemStats block. The synchronous
 * routeMessage()/memoryAccess() above stay valid only within one unit (or at
 * one shard); sharded-aware agents use the asynchronous forms —
 * postMessage() / memoryAccessAsync() — whose cross-unit leg is a delivery
 * keyed by the window it was posted in (the queue's seq is a window key, see
 * sim/event_queue.hh): it sorts after every same-tick event scheduled in
 * that window and before any scheduled later, same-tick deliveries by
 * (source unit, post order). Every post is keyed straight into the
 * destination unit's wheel, on its own shard or another, moving its
 * continuation once. At the arrival tick the queue calls arrive(), which
 * charges the destination crossbar, and refiles the same node at the
 * crossbar exit. The order is the key at every shard count, so a sharded run
 * replays exactly the per-unit event order of a single-queue one — the
 * bit-identity contract the sharded tests enforce. eq(unit) reads a per-unit
 * queue table; there is no unit-less queue accessor, so every caller names
 * the unit whose queue it means. A configuration whose lookahead is zero
 * (zero crossbar period and zero link latency) leaves no conservative window
 * and is rejected at construction.
 */

#ifndef SYNCRON_SYSTEM_MACHINE_HH
#define SYNCRON_SYSTEM_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/allocator.hh"
#include "mem/dram.hh"
#include "net/crossbar.hh"
#include "net/link.hh"
#include "sim/event_queue.hh"
#include "sim/sharded_kernel.hh"
#include "system/config.hh"

namespace syncron {

/** Bits in a request message header (command + address + ids). */
constexpr std::uint32_t kMemReqHeaderBits = 80;

/** Bits in a response message header. */
constexpr std::uint32_t kMemRespHeaderBits = 16;

/** One simulated NDP platform instance. */
class Machine : public sim::ShardedKernel::Client,
                public sim::EventQueue::DeliveryHook
{
  public:
    using Callback = sim::EventQueue::Callback;

    /** Callout run after every window of a sharded run, once every
     *  shard has run it (SyncApi replays its observer lanes). */
    class WindowListener
    {
      public:
        virtual ~WindowListener() = default;
        virtual void windowEnded() = 0;
    };

    explicit Machine(const SystemConfig &cfg);
    ~Machine() override;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const SystemConfig &config() const { return cfg_; }

    /** The event queue owning @p unit — all of that unit's activity
     *  (device callbacks, core resumes, gate opens) must run here. */
    sim::EventQueue &eq(UnitId unit) { return *unitQueue_[unit]; }

    /** The machine's one stats block; every unit charges it. */
    SystemStats &stats() { return stats_; }
    const SystemStats &stats() const { return stats_; }

    mem::AddressSpace &addrSpace() { return addrSpace_; }

    net::Crossbar &xbar(UnitId unit);
    mem::Dram &dram(UnitId unit);
    net::LinkFabric &links() { return *links_; }

    // -- Shard topology ------------------------------------------------
    /** Number of shards actually materialized (after clamping). */
    unsigned numShards() const
    {
        return static_cast<unsigned>(queues_.size());
    }

    /** Shard owning @p unit (contiguous unit blocks). */
    unsigned shardOf(UnitId unit) const { return unit / unitsPerShard_; }

    /** The per-shard queues, for the ShardedKernel coordinator. */
    std::vector<sim::EventQueue *> shardQueues();

    /**
     * Conservative PDES lookahead: the minimum number of ticks any
     * cross-unit message needs (source crossbar floor + link controller
     * + flight). Cross-unit deliveries always arrive at least this far
     * in the future, which is what makes the windows safe. Never zero:
     * the constructor rejects such a configuration.
     */
    Tick lookahead() const;

    /** Sum of executed events across all shard queues (host perf). */
    std::uint64_t executedEvents() const;

    /** Sum of events executed straight from the overflow heap across
     *  all shard queues (host perf). */
    std::uint64_t heapEvents() const;

    /** Max now() across shard queues. */
    Tick maxNow() const;

    /** True while a window of a sharded run is in flight. Quiescent-
     *  only operations (primitive alloc/destroy, idleVar sweeps) assert
     *  this is false. */
    bool inShardedWindow() const { return inShardedWindow_; }

    // -- Synchronous transport (single-unit / single-shard callers) ----
    /**
     * Routes a @p bits -bit message from unit @p from to unit @p to,
     * starting at @p start. Same-unit messages traverse only the local
     * crossbar; cross-unit messages traverse source crossbar, serial
     * link, and destination crossbar.
     *
     * Cross-unit use requires both units on the same shard (single-shard
     * machines, or unit-local agents): it touches the destination
     * crossbar synchronously.
     *
     * @return absolute arrival tick
     */
    Tick routeMessage(Tick start, UnitId from, UnitId to,
                      std::uint32_t bits);

    /**
     * Performs a complete uncached memory transaction issued by an agent
     * in unit @p from to address @p addr (request + DRAM + response).
     * Same shard-locality caveat as routeMessage().
     *
     * @return absolute tick at which the response reaches the requester
     */
    Tick memoryAccess(Tick start, UnitId from, Addr addr, bool isWrite,
                      std::uint32_t bytes);

    // -- Asynchronous transport (shard-safe) ---------------------------
    /**
     * Delivers a @p bits -bit message from @p from to @p to and runs
     * @p cont on @p to's shard at the arrival tick (after the
     * destination-crossbar traversal; read the arrival via
     * eq(to).now()). Same-unit messages schedule directly; cross-unit
     * messages are keyed deliveries filed straight into @p to's queue.
     * Must be called from @p from's shard.
     */
    void postMessage(Tick start, UnitId from, UnitId to,
                     std::uint32_t bits, Callback cont);

    /**
     * Asynchronous memoryAccess(): request message, DRAM access at the
     * owning unit, response message; runs @p onDone on @p from's shard
     * at the tick the response arrives (read it via eq(from).now()).
     */
    void memoryAccessAsync(Tick start, UnitId from, Addr addr,
                           bool isWrite, std::uint32_t bytes,
                           Callback onDone);

    /** Fire-and-forget memoryAccessAsync() — models the occupancy of an
     *  off-critical-path access (e.g. a cache victim writeback). */
    void memoryAccessDetached(Tick start, UnitId from, Addr addr,
                              bool isWrite, std::uint32_t bytes);

    // -- ShardedKernel::Client -----------------------------------------
    void windowBegin() override { inShardedWindow_ = true; }
    void
    windowEnd() override
    {
        inShardedWindow_ = false;
        if (windowListener_ != nullptr)
            windowListener_->windowEnded();
    }

    // -- EventQueue::DeliveryHook ---------------------------------------
    /** A delivery reached its destination unit: pays the destination
     *  crossbar and returns its exit tick. */
    Tick arrive(std::uint32_t tag) override;

    /** Installs (nullptr removes) the one window-end listener. */
    void setWindowListener(WindowListener *l) { windowListener_ = l; }

    // -- Crash injection (durability) ----------------------------------
    /** Marks the machine torn down mid-run by the crash injector. */
    void markCrashed() { crashed_ = true; }

    /** True once the crash injector tore the machine down. */
    bool crashed() const { return crashed_; }

  private:
    /** Callbacks parked by slot index (the index rides a small event
     *  capture where the callback itself would not fit). */
    struct CallbackPark
    {
        std::vector<Callback> slots;
        std::vector<std::uint32_t> freeSlots;

        /** Moves @p cb into a free slot; returns its index. */
        std::uint32_t park(Callback &&cb);
        void release(std::uint32_t idx) { freeSlots.push_back(idx); }
    };

    void completeMemOp(std::uint32_t idx);

    SystemConfig cfg_;
    bool crashed_ = false;
    bool inShardedWindow_ = false;
    WindowListener *windowListener_ = nullptr;
    SystemStats stats_;
    /// Completion callbacks of in-flight async memory ops (the slot
    /// index rides the message captures so nested captures never exceed
    /// the callback bound).
    CallbackPark memPending_;
    unsigned unitsPerShard_ = 1;
    /// One queue per shard.
    std::vector<std::unique_ptr<sim::EventQueue>> queues_;
    /// Owning shard's queue of each unit (eq(unit) lookups).
    std::vector<sim::EventQueue *> unitQueue_;
    mem::AddressSpace addrSpace_;
    std::vector<std::unique_ptr<net::Crossbar>> xbars_;
    std::vector<std::unique_ptr<mem::Dram>> drams_;
    std::unique_ptr<net::LinkFabric> links_;
};

} // namespace syncron

#endif // SYNCRON_SYSTEM_MACHINE_HH
