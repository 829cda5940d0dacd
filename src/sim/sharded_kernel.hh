/**
 * @file
 * Conservative window coordinator over per-shard EventQueues.
 *
 * One simulation is partitioned into shards (groups of NDP units), each
 * owning a private timing-wheel EventQueue (sim/event_queue.hh). Shards
 * are windows stepped on one thread: the coordinator opens one global
 * lookahead window on every queue and then runs each shard through it
 * on the calling thread, in shard order.
 *
 * Window protocol (classic conservative PDES with a global window):
 *
 *   loop:
 *     W = min over shards of nextTime()          // global horizon
 *     stop when no shard has work (or W > until)
 *     open the window [W, min(W + lookahead - 1, until)] on every
 *       queue, then run shard 0, 1, ..., N-1 through it
 *
 * Order: each queue's same-tick order is its window key ("seq", see
 * sim/event_queue.hh). A cross-shard delivery is filed straight into
 * its destination queue while the posting shard runs, keyed
 * (window, 1, source unit, post order): it sorts after every event its
 * destination schedules in the posting window and before any it
 * schedules later. Every source unit posts from exactly one shard, in
 * post order, so the keys — and the order — are the ones a barrier
 * drain of per-shard outboxes would give, at every shard count.
 *
 * Safety: a cross-unit message posted at tick t arrives at
 * >= t + lookahead (lookahead is derived from the configured link +
 * crossbar latencies). Every event executed inside a window happens at
 * tick <= W + lookahead - 1, so anything it posts to another shard
 * arrives at >= W + lookahead — strictly after the window — whether the
 * destination shard has already run the window or not. No shard ever
 * receives an event in its past, which is what makes the sharded run
 * bit-identical to the single-queue one.
 *
 * The lookahead must be non-zero at every shard count; the coordinator
 * asserts this (Machine rejects a configuration whose lookahead is
 * zero). With one queue there is no horizon poll: the coordinator hands
 * the lookahead to the queue, which opens the same windows itself.
 */

#ifndef SYNCRON_SIM_SHARDED_KERNEL_HH
#define SYNCRON_SIM_SHARDED_KERNEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace syncron::sim {

/** Windowed coordinator stepping per-shard EventQueues in shard order. */
class ShardedKernel
{
  public:
    /** Notifications bracketing each window of a run over several
     *  queues. Lets the owner flag "a window is in flight" so
     *  quiescent-only operations (primitive alloc/destroy) can assert,
     *  and replay per-shard buffers once the window ends. */
    class Client
    {
      public:
        virtual ~Client() = default;
        virtual void windowBegin() {}
        virtual void windowEnd() {}
    };

    /**
     * @param queues    one EventQueue per shard (non-owning, stable).
     * @param lookahead minimum cross-shard latency in ticks; must be > 0.
     * @param client    notified around every window.
     */
    ShardedKernel(std::vector<EventQueue *> queues, Tick lookahead,
                  Client &client);

    ShardedKernel(const ShardedKernel &) = delete;
    ShardedKernel &operator=(const ShardedKernel &) = delete;

    /**
     * Runs every shard until all queues drain, or until the global
     * horizon passes @p until (bounded stepping for crash injection).
     * Events with tick <= until execute; later ones stay queued.
     * Returns the max now() across shards. A throwing event propagates
     * at once: the shards after it in the window have not run it yet,
     * and a later run() resumes them.
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
    /** Opens the window ending at @p limit on every queue and runs
     *  each shard through it, in shard order. */
    void runWindow(Tick limit);

    std::vector<EventQueue *> queues_;
    Tick lookahead_;
    Client &client_;
    std::uint64_t windows_ = 0;
};

} // namespace syncron::sim

#endif // SYNCRON_SIM_SHARDED_KERNEL_HH
