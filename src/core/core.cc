#include "core/core.hh"

#include <algorithm>

namespace syncron::core {

Core::Core(Machine &machine, CoreId id, UnitId unit, unsigned localId)
    : machine_(machine), l1_(machine.config().l1, machine.stats()),
      rng_(machine.config().seed * 0x9e3779b97f4a7c15ULL + id + 1),
      id_(id), unit_(unit), localId_(localId)
{}

sim::Delay
Core::compute(std::uint64_t instructions)
{
    machine_.stats().instructions += instructions;
    return sim::Delay{machine_.eq(unit_), instructions * cyclePeriod()};
}

MemOp
Core::load(Addr addr, std::uint32_t bytes, MemKind kind)
{
    ++machine_.stats().memOps;
    return MemOp{*this, addr, bytes, false, kind};
}

MemOp
Core::store(Addr addr, std::uint32_t bytes, MemKind kind)
{
    ++machine_.stats().memOps;
    return MemOp{*this, addr, bytes, true, kind};
}

void
MemOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    Machine &m = core_.machine_;
    const Tick now = m.eq(core_.unit()).now();
    if (kind_ == MemKind::SharedRW) {
        // Uncacheable: one full (possibly remote) DRAM transaction; the
        // completion callback runs at the response-arrival tick on this
        // core's shard.
        m.memoryAccessAsync(now, core_.unit(), addr_, isWrite_, bytes_,
                            [this] { h_.resume(); });
        return;
    }
    start_ = now;
    done_ = now;
    line_ = lineAlign(addr_);
    lastLine_ = lineAlign(addr_ + bytes_ - 1);
    stepLines();
}

void
MemOp::stepLines()
{
    // Split accesses that straddle a line boundary (rare; keeps the tag
    // model honest for multi-word reads).
    Machine &m = core_.machine_;
    while (line_ <= lastLine_) {
        const cache::CacheAccessResult res =
            core_.l1_.access(line_, isWrite_);
        const Tick lookup =
            static_cast<Tick>(core_.l1_.params().hitCycles)
            * core_.cyclePeriod();
        const Tick t = start_ + lookup;
        if (!res.hit) {
            // Fill the line from the owning unit's DRAM, then continue
            // the walk when the fill arrives.
            m.memoryAccessAsync(t, core_.unit(), line_, false,
                                kCacheLineBytes,
                                [this] { onFillDone(); });
            if (res.writeback) {
                // Dirty victim written back off the critical path; it
                // still occupies banks/links and counts energy.
                m.memoryAccessDetached(t, core_.unit(), res.victimAddr,
                                       true, kCacheLineBytes);
            }
            return;
        }
        done_ = std::max(done_, t);
        start_ = t;
        line_ += kCacheLineBytes;
    }
    finish();
}

void
MemOp::onFillDone()
{
    const Tick t = core_.machine_.eq(core_.unit()).now();
    done_ = std::max(done_, t);
    start_ = t;
    line_ += kCacheLineBytes;
    stepLines();
}

void
MemOp::finish()
{
    sim::EventQueue &eq = core_.machine_.eq(core_.unit());
    eq.schedule(done_, [h = h_] { h.resume(); });
}

} // namespace syncron::core
