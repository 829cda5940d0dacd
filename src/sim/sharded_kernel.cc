#include "sim/sharded_kernel.hh"

#include <algorithm>

#include "common/log.hh"

namespace syncron::sim {

ShardedKernel::ShardedKernel(std::vector<EventQueue *> queues, Tick lookahead,
                             Client &client)
    : queues_(std::move(queues)), lookahead_(lookahead), client_(client)
{
    SYNCRON_ASSERT(!queues_.empty(), "ShardedKernel needs at least one shard");
    for (EventQueue *q : queues_)
        SYNCRON_ASSERT(q, "null shard queue");
    SYNCRON_ASSERT(lookahead_ > 0,
                   "ShardedKernel needs a non-zero lookahead");
    if (queues_.size() == 1)
        queues_[0]->setLookahead(lookahead_);
}

Tick
ShardedKernel::horizon() const
{
    Tick w = kTickNever;
    for (const EventQueue *q : queues_)
        w = std::min(w, q->nextTime());
    return w;
}

void
ShardedKernel::runWindow(Tick limit)
{
    for (EventQueue *q : queues_)
        q->openWindow(limit);
    client_.windowBegin();
    try {
        for (EventQueue *q : queues_)
            q->runWindow();
    } catch (...) {
        client_.windowEnd();
        throw;
    }
    client_.windowEnd();
}

Tick
ShardedKernel::run(Tick until)
{
    if (queues_.size() == 1) {
        // The queue opens the same windows itself, keyed exactly as the
        // loop below keys them.
        EventQueue &q = *queues_[0];
        const std::uint64_t before = q.windows();
        q.run(until);
        windows_ += q.windows() - before;
        return q.now();
    }
    for (;;) {
        Tick w = horizon();
        if (w == kTickNever || w > until)
            break;
        // run(until) is inclusive: the window covers
        // [w, w + lookahead - 1] so no event inside it can produce a
        // cross-shard arrival (stamped >= t + lookahead) that lands
        // inside the same window.
        runWindow(std::min(w + lookahead_ - 1, until));
        ++windows_;
    }
    for (EventQueue *q : queues_)
        q->closeWindow();
    Tick maxNow = 0;
    for (const EventQueue *q : queues_)
        maxNow = std::max(maxNow, q->now());
    return maxNow;
}

} // namespace syncron::sim
