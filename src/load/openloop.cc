#include "load/openloop.hh"

#include <algorithm>

#include "common/log.hh"
#include "sync/api.hh"
#include "system/system.hh"

namespace syncron::load {

OpenLoopWorkload::OpenLoopWorkload(NdpSystem &sys, const LoadSpec &spec,
                                   const ArrivalSchedule &sched)
    : sys_(sys), spec_(spec), sched_(sched)
{
    SYNCRON_ASSERT(sched.perCore.size() == sys.numClientCores(),
                   "arrival schedule covers "
                       << sched.perCore.size() << " cores, system has "
                       << sys.numClientCores());
    locks_ = sys.api().createLockSet(spec.numLocks);
    state_.resize(sched.perCore.size());

    const unsigned n = sys.numClientCores();
    for (unsigned i = 0; i < n; ++i) {
        core::Core &c = sys.clientCore(i);
        const unsigned slots = std::min<std::size_t>(
            spec.window, sched.perCore[i].size());
        for (unsigned w = 0; w < slots; ++w)
            sys.spawn(worker(c, i), c);
    }
}

LoadCounters
OpenLoopWorkload::totals() const
{
    LoadCounters total;
    for (const PerCore &pc : state_)
        total += pc.counters;
    return total;
}

sim::Process
OpenLoopWorkload::worker(core::Core &c, unsigned coreIdx)
{
    sync::SyncApi &api = sys_.api();
    sim::EventQueue &eq = c.machine().eq(c.unit());
    PerCore &st = state_[coreIdx];
    const std::vector<Arrival> &sched = sched_.perCore[coreIdx];

    while (st.cursor < sched.size()) {
        const Arrival a = sched[st.cursor++];
        if (a.tick > eq.now())
            co_await sim::Delay{eq, a.tick - eq.now()};

        const bool busy =
            std::find(st.busyLocks.begin(), st.busyLocks.end(),
                      a.lockIdx)
            != st.busyLocks.end();
        if (spec_.policy == OverloadPolicy::Drop) {
            // Shed anything that cannot issue at its scheduled tick:
            // the window was full when it came due, or the core
            // already has an op in flight on the same lock.
            if (eq.now() > a.tick || busy) {
                ++st.counters.dropped;
                continue;
            }
            st.busyLocks.push_back(a.lockIdx);
        } else {
            if (busy) {
                // Park until the owning worker's release hands this
                // lock's in-flight slot over (FIFO).
                sim::Gate gate(eq);
                st.waiters.emplace_back(a.lockIdx, &gate);
                co_await gate;
            } else {
                st.busyLocks.push_back(a.lockIdx);
            }
            if (eq.now() > a.tick) {
                ++st.counters.queued;
                st.counters.queueDelayTicks += eq.now() - a.tick;
            }
        }
        ++st.counters.issued;

        const sync::Lock &lock = locks_[a.lockIdx];
        sync::SyncFuture acq = api.submitAcquire(c, lock);
        co_await acq;
        if (spec_.holdTicks > 0)
            co_await sim::Delay{eq, spec_.holdTicks};
        sync::SyncFuture rel = api.submitRelease(c, lock);
        co_await rel;

        // Hand the in-flight slot to the first waiter on this lock
        // (busyLocks keeps the entry: ownership transfers), or clear.
        bool handedOff = false;
        for (auto it = st.waiters.begin(); it != st.waiters.end();
             ++it) {
            if (it->first == a.lockIdx) {
                sim::Gate *gate = it->second;
                st.waiters.erase(it);
                gate->open();
                handedOff = true;
                break;
            }
        }
        if (!handedOff) {
            st.busyLocks.erase(std::find(st.busyLocks.begin(),
                                         st.busyLocks.end(),
                                         a.lockIdx));
        }
    }
}

} // namespace syncron::load
