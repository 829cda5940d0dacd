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
    if (queues_.size() == 1) {
        queues_[0]->setLookahead(lookahead_);
    } else {
        errors_.resize(queues_.size());
        workers_.reserve(queues_.size() - 1);
        for (std::size_t s = 1; s < queues_.size(); ++s)
            workers_.emplace_back([this, s] { workerLoop(s); });
    }
}

ShardedKernel::~ShardedKernel()
{
    if (!workers_.empty()) {
        stop_ = true;
        generation_.fetch_add(1, std::memory_order_release);
        generation_.notify_all();
        for (std::thread &t : workers_)
            t.join();
    }
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
ShardedKernel::runShard(std::size_t shard)
{
    try {
        queues_[shard]->runWindow();
    } catch (...) {
        errors_[shard] = std::current_exception();
    }
}

void
ShardedKernel::workerLoop(std::size_t shard)
{
    std::uint32_t seen = 0;
    for (;;) {
        generation_.wait(seen, std::memory_order_acquire);
        seen = generation_.load(std::memory_order_acquire);
        if (stop_)
            return;
        runShard(shard);
        if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            running_.notify_one();
    }
}

void
ShardedKernel::runWindow(Tick limit)
{
    for (EventQueue *q : queues_)
        q->openWindow(limit);
    client_.windowBegin();
    running_.store(static_cast<std::uint32_t>(workers_.size()),
                   std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    runShard(0);
    for (std::uint32_t left = running_.load(std::memory_order_acquire);
         left != 0; left = running_.load(std::memory_order_acquire))
        running_.wait(left, std::memory_order_acquire);
    client_.windowEnd();
    // Rethrow the lowest shard's failure so error reporting is
    // deterministic even when several shards fault in one window.
    for (std::size_t s = 0; s < errors_.size(); ++s) {
        if (errors_[s]) {
            std::exception_ptr ep = errors_[s];
            for (auto &e : errors_)
                e = nullptr;
            std::rethrow_exception(ep);
        }
    }
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
        client_.drainMailboxes();
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
