#include "system/system.hh"

#include <iostream>
#include <sstream>

#include "analysis/live.hh"
#include "common/log.hh"
#include "durability/backend.hh"
#include "durability/manager.hh"
#include "sim/sharded_kernel.hh"
#include "sync/registry.hh"
#include "trace/capture.hh"
#include "trace/format.hh"

namespace syncron {

namespace {

/**
 * Collapses SystemConfig::simShards to 1 when the selected backend has
 * not been declared shard-safe (see BackendRegistry::add). Resolved
 * before the Machine is built because the shard topology is fixed at
 * machine construction, while the backend is only instantiated after.
 */
SystemConfig
resolveSimShards(SystemConfig cfg)
{
    if (cfg.simShards > 1) {
        const std::string name = cfg.backendName.empty()
                                     ? schemeName(cfg.scheme)
                                     : cfg.backendName;
        if (!sync::BackendRegistry::instance().shardable(name))
            cfg.simShards = 1;
    }
    return cfg;
}

} // namespace

NdpSystem::NdpSystem(const SystemConfig &cfg)
    : machine_(std::make_unique<Machine>(resolveSimShards(cfg)))
{
    // Backend selection is fully name-driven: the registry instantiates
    // whatever backend is registered under the configured name (by
    // default the scheme's canonical name), so new schemes plug in
    // without touching this file.
    const SystemConfig &conf = machine_->config();
    const std::string name = conf.backendName.empty()
                                 ? schemeName(conf.scheme)
                                 : conf.backendName;
    backend_ = sync::BackendRegistry::instance().create(name, *machine_);
    engineView_ = dynamic_cast<engine::SynCronBackend *>(backend_.get());
    if (conf.persistMode != durability::PersistMode::Off) {
        durability_ =
            std::make_unique<durability::DurabilityManager>(*machine_);
        if (conf.persistMode == durability::PersistMode::Eager) {
            // Eager: every acquire-type request pays the PM write
            // before the backend may service it.
            backend_ = std::make_unique<durability::PersistingBackend>(
                std::move(backend_), *machine_);
        }
    }
    api_ = std::make_unique<sync::SyncApi>(*machine_, *backend_);
    if (!conf.tracePath.empty()) {
        capture_ = std::make_unique<trace::TraceCapture>(conf);
        api_->addObserver(capture_.get());
    }
    if (conf.analyze) {
        analyzer_ = std::make_unique<analysis::LiveAnalyzer>(conf);
        api_->addObserver(analyzer_.get());
    }
    if (durability_ != nullptr)
        api_->addObserver(durability_.get());

    const SystemConfig &c = machine_->config();
    cores_.reserve(c.totalClientCores());
    for (unsigned u = 0; u < c.numUnits; ++u) {
        for (unsigned l = 0; l < c.clientCoresPerUnit; ++l) {
            // Core-ID layout contract: see
            // SystemConfig::denseClientIndex(), which inverts this.
            const CoreId id = u * c.coresPerUnit + l;
            cores_.push_back(
                std::make_unique<core::Core>(*machine_, id, u, l));
        }
    }
}

NdpSystem::~NdpSystem() = default;

unsigned
NdpSystem::numClientCores() const
{
    return static_cast<unsigned>(cores_.size());
}

core::Core &
NdpSystem::clientCore(unsigned idx)
{
    SYNCRON_ASSERT(idx < cores_.size(), "client core index out of range: "
                                            << idx);
    return *cores_[idx];
}

void
NdpSystem::spawn(sim::Process process)
{
    SYNCRON_ASSERT(machine_->numShards() == 1,
                   "spawn(process) without a core on a sharded machine — "
                   "use spawn(process, core) so the coroutine is homed on "
                   "its core's shard");
    process.start(machine_->eq(0));
    processes_.push_back(std::move(process));
}

void
NdpSystem::spawn(sim::Process process, const core::Core &core)
{
    process.start(machine_->eq(core.unit()));
    processes_.push_back(std::move(process));
}

void
NdpSystem::run()
{
    const SystemConfig &cfg = machine_->config();
    sim::ShardedKernel kernel(machine_->shardQueues(),
                              machine_->lookahead(), *machine_);
    kernel.run(cfg.crashAtTick != 0 ? cfg.crashAtTick : kTickNever);
    kernelWindows_ += kernel.windows();
    api_->flushObservers();
    if (cfg.crashAtTick != 0) {
        bool pending = false;
        for (const sim::Process &p : processes_) {
            if (!p.done()) {
                pending = true;
                break;
            }
        }
        if (pending) {
            // The injected crash fired mid-run: tear the machine down
            // where it stands. Nothing past the crash tick happened —
            // no trace writeout, no analysis, no stat finalization;
            // only the durability manager's persisted image survives.
            machine_->markCrashed();
            if (durability_ != nullptr)
                durability_->noteCrash(machine_->eq(0).now());
            return;
        }
        // The run finished before the crash tick; fall through to the
        // normal end-of-run path.
    }
    for (const sim::Process &p : processes_) {
        if (!p.done()) {
            SYNCRON_FATAL(
                "deadlock: event queue drained with "
                << processes_.size()
                << " processes spawned but at least one still blocked "
                   "(scheme "
                << backend_->name() << ")");
        }
    }
    if (engineView_ != nullptr)
        engineView_->finalizeStats();
    if (durability_ != nullptr)
        durability_->shutdownFlush();
    if (capture_ != nullptr) {
        trace::writeTraceFile(capture_->trace(),
                              machine_->config().tracePath);
    }
    if (analyzer_ != nullptr && !analyzer_->finished()) {
        const analysis::AnalysisReport &report = analyzer_->finish();
        if (!report.clean()) {
            std::ostringstream os;
            report.print(os);
            if (machine_->config().analyzeFatal) {
                SYNCRON_FATAL("sync-correctness analysis failed:\n"
                              << os.str());
            }
            std::cerr << os.str();
        }
    }
}

Tick
NdpSystem::elapsed() const
{
    return machine_->maxNow();
}

} // namespace syncron
