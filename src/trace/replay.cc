#include "trace/replay.hh"

#include "common/log.hh"
#include "system/system.hh"

namespace syncron::trace {

SystemConfig
replayConfig(const Trace &trace, Scheme scheme)
{
    return SystemConfig::make(scheme, trace.numUnits,
                              trace.clientCoresPerUnit);
}

Replayer::Replayer(const Trace &trace) : trace_(trace) {}

void
Replayer::install(NdpSystem &sys)
{
    const SystemConfig &cfg = sys.config();
    if (cfg.numUnits != trace_.numUnits
        || sys.numClientCores() != trace_.numClientCores()) {
        SYNCRON_FATAL("replay system shape ("
                      << cfg.numUnits << " units, "
                      << sys.numClientCores()
                      << " client cores) does not match the trace ("
                      << trace_.numUnits << " units, "
                      << trace_.numClientCores()
                      << " client cores); build the config with "
                         "trace::replayConfig()");
    }
    SYNCRON_ASSERT(minted_.empty(), "Replayer installed twice");

    sync::SyncApi &api = sys.api();
    minted_.reserve(trace_.primitives.size());
    for (const TracePrimitive &p : trace_.primitives) {
        Minted m;
        m.kind = p.kind;
        switch (p.kind) {
          case PrimKind::Lock:
            m.lock = api.createLock(p.home);
            break;
          case PrimKind::Barrier:
            m.barrier = api.createBarrier(
                p.home, p.param == 0 ? 1 : p.param, p.scope);
            break;
          case PrimKind::Semaphore:
            m.sem = api.createSemaphore(p.home, p.param);
            break;
          case PrimKind::CondVar:
            m.cond = api.createCondVar(p.home);
            break;
        }
        minted_.push_back(m);
    }

    // Group the stream per traced core; stream order is program order.
    std::vector<std::vector<std::uint32_t>> perCore(
        trace_.numClientCores());
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(trace_.records.size()); ++i) {
        perCore[trace_.records[i].core].push_back(i);
    }
    for (std::uint32_t c = 0; c < trace_.numClientCores(); ++c) {
        if (perCore[c].empty())
            continue;
        sys.spawn(
            replayCore(sys, sys.clientCore(c), std::move(perCore[c])),
            sys.clientCore(c));
    }
}

sim::Process
Replayer::replayCore(NdpSystem &sys, core::Core &core,
                     std::vector<std::uint32_t> recordIdxs)
{
    sync::SyncApi &api = sys.api();
    sim::EventQueue &eq = core.machine().eq(core.unit());

    /** One submitted-but-not-yet-awaited operation. */
    struct InFlight
    {
        std::uint32_t prim;
        sync::SyncFuture future;
    };
    std::vector<InFlight> inflight;
    inflight.reserve(kMaxInFlight + 1);

    for (const std::uint32_t idx : recordIdxs) {
        const TraceRecord &r = trace_.records[idx];
        const bool condFamily = r.kind == sync::OpKind::CondWait
                                || r.kind == sync::OpKind::CondSignal
                                || r.kind == sync::OpKind::CondBroadcast;

        // Program-order dependencies: an op waits for every in-flight
        // op on the same primitive (FIFO, so per-variable issue order
        // matches the trace and a release can never overtake its
        // acquire). cond-family ops drain the whole pipeline — their
        // lock coupling must observe everything this core issued.
        for (std::size_t i = 0; i < inflight.size();) {
            const bool depends =
                condFamily || inflight[i].prim == r.prim;
            if (depends) {
                // Named reference: GCC 12 rejects co_await on the
                // reference returned straight from operator[].
                sync::SyncFuture &dep = inflight[i].future;
                co_await dep;
                inflight.erase(inflight.begin()
                               + static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }

        // Open-loop arrival: wait out the recorded issue tick, unless a
        // dependency's real completion already passed it.
        if (r.issued > eq.now())
            co_await sim::Delay{eq, r.issued - eq.now()};

        const Minted &m = minted_[r.prim];
        switch (r.kind) {
          case sync::OpKind::LockAcquire:
            inflight.push_back(
                InFlight{r.prim, api.submitAcquire(core, m.lock)});
            break;
          case sync::OpKind::LockRelease:
            inflight.push_back(
                InFlight{r.prim, api.submitRelease(core, m.lock)});
            break;
          case sync::OpKind::BarrierWaitWithinUnit:
          case sync::OpKind::BarrierWaitAcrossUnits:
            inflight.push_back(
                InFlight{r.prim, api.submitWait(core, m.barrier)});
            break;
          case sync::OpKind::SemWait:
            inflight.push_back(
                InFlight{r.prim, api.submitWait(core, m.sem)});
            break;
          case sync::OpKind::SemPost:
            inflight.push_back(
                InFlight{r.prim, api.submitPost(core, m.sem)});
            break;
          case sync::OpKind::CondWait:
            // Blocking by construction: the pipeline is already dry.
            co_await api.wait(core, m.cond, minted_[r.assocPrim].lock);
            break;
          case sync::OpKind::CondSignal:
            co_await api.signal(core, m.cond);
            break;
          case sync::OpKind::CondBroadcast:
            co_await api.broadcast(core, m.cond);
            break;
        }

        // Bound the pipeline: retire the oldest op once the window is
        // exceeded.
        while (inflight.size() > kMaxInFlight) {
            sync::SyncFuture &oldest = inflight.front().future;
            co_await oldest;
            inflight.erase(inflight.begin());
        }
        ++opsReplayed_;
    }

    // Retire everything still in flight before the core finishes.
    while (!inflight.empty()) {
        sync::SyncFuture &oldest = inflight.front().future;
        co_await oldest;
        inflight.erase(inflight.begin());
    }
}

} // namespace syncron::trace
