/**
 * @file
 * Conservative parallel-discrete-event coordinator over per-shard
 * EventQueues.
 *
 * One simulation is partitioned into shards (groups of NDP units), each
 * owning a private timing-wheel EventQueue (sim/event_queue.hh). Shards
 * only interact through mailboxes drained at window barriers, so each
 * shard can run a bounded window of events on its own host thread.
 *
 * Window protocol (classic conservative PDES with a global window):
 *
 *   loop:
 *     drain mailboxes (single-threaded; files cross-shard envelopes
 *       into destination queues under the window they were posted in)
 *     W = min over shards of nextTime()          // global horizon
 *     stop when no shard has work (or W > until)
 *     open the window [W, min(W + lookahead - 1, until)] on every
 *       queue and run every shard through it in parallel
 *
 * Order: each queue's same-tick order is its window key ("seq", see
 * sim/event_queue.hh), so a cross-shard delivery sorts after every
 * event its destination scheduled in the posting window and before any
 * it schedules later — by key, not by the drain. The drain files each
 * outbox in post order with no sort.
 *
 * Safety: a cross-shard message posted at tick t carries an
 * earliest-arrival stamp >= t + lookahead (the mailbox owner guarantees
 * this; lookahead is derived from the configured link + crossbar
 * latencies). Every event executed inside a window happens at tick
 * <= W + lookahead - 1, so any envelope it posts arrives at
 * >= W + lookahead — strictly after the window — and is delivered by the
 * next barrier before any shard advances past it. No shard ever receives
 * an event in its past, which is what makes the parallel run bit-identical
 * to the single-threaded one.
 *
 * The lookahead must be non-zero at every shard count; the coordinator
 * asserts this (Machine rejects a configuration whose lookahead is
 * zero). With one queue there is no mailbox, barrier or horizon poll:
 * the coordinator hands the lookahead to the queue, which opens the
 * same windows itself, and never spawns threads.
 *
 * Threads: N shards use N-1 worker threads; the calling thread runs
 * shard 0 itself. The barrier is park-only — an atomic window
 * generation the workers wait on and an atomic running count the
 * coordinator waits on (std::atomic::wait/notify), with only the last
 * finisher waking the coordinator. Nothing spins: host CPU time is part
 * of what the simulator is measured on.
 */

#ifndef SYNCRON_SIM_SHARDED_KERNEL_HH
#define SYNCRON_SIM_SHARDED_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace syncron::sim {

/** Windowed coordinator advancing per-shard EventQueues in parallel. */
class ShardedKernel
{
  public:
    /** Barrier-time callout owned by whoever owns the mailboxes. */
    class Client
    {
      public:
        virtual ~Client() = default;

        /**
         * Deliver all queued cross-shard envelopes into destination
         * queues. Called single-threaded, only at window barriers of a
         * run over several queues (no shard is running). Must be
         * deterministic: delivery order may not depend on the shard
         * count or host thread timing.
         */
        virtual void drainMailboxes() = 0;

        /** Barrier-time notifications bracketing each parallel window.
         *  Lets the owner flag "a window is in flight" so quiescent-only
         *  operations (primitive alloc/destroy) can assert. */
        virtual void windowBegin() {}
        virtual void windowEnd() {}
    };

    /**
     * @param queues    one EventQueue per shard (non-owning, stable).
     * @param lookahead minimum cross-shard latency in ticks; must be > 0.
     * @param client    mailbox owner called at every barrier.
     */
    ShardedKernel(std::vector<EventQueue *> queues, Tick lookahead,
                  Client &client);
    ~ShardedKernel();

    ShardedKernel(const ShardedKernel &) = delete;
    ShardedKernel &operator=(const ShardedKernel &) = delete;

    /**
     * Runs every shard until all queues and mailboxes drain, or until
     * the global horizon passes @p until (bounded stepping for crash
     * injection). Events with tick <= until execute; later ones stay
     * queued. Returns the max now() across shards.
     */
    Tick run(Tick until = kTickNever);

    /** Number of lookahead windows executed so far (self-opened by
     *  the queue at one shard). */
    std::uint64_t windows() const { return windows_; }

    Tick lookahead() const { return lookahead_; }
    std::size_t shards() const { return queues_.size(); }

  private:
    /** Min nextTime() across shards (kTickNever when all empty). */
    Tick horizon() const;
    /** Opens the window ending at @p limit on every queue and runs it —
     *  shard 0 on this thread, the rest on the workers. */
    void runWindow(Tick limit);
    void workerLoop(std::size_t shard);
    /** Runs one shard's open window, parking any failure in errors_. */
    void runShard(std::size_t shard);

    std::vector<EventQueue *> queues_;
    Tick lookahead_;
    Client &client_;
    std::uint64_t windows_ = 0;

    // -- Window barrier (only used when sharded) ------------------------
    /// Bumped per window (and once at shutdown); workers park on it.
    /// 32-bit so std::atomic::wait maps straight onto a futex.
    std::atomic<std::uint32_t> generation_{0};
    /// Workers still inside the current window; the coordinator parks
    /// on it and the last finisher wakes it.
    std::atomic<std::uint32_t> running_{0};
    bool stop_ = false; ///< published by the generation bump
    std::vector<std::exception_ptr> errors_; ///< per-shard, rethrown by index
    /// Shards 1..N-1; declared last so the members above outlive them.
    std::vector<std::thread> workers_;
};

} // namespace syncron::sim

#endif // SYNCRON_SIM_SHARDED_KERNEL_HH
