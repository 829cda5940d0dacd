/**
 * @file
 * Live analysis observer: adapts the SyncApi operation stream (a
 * sync::OpObserver, sibling of trace::TraceCapture) to the
 * AnalysisEngine. Installed by NdpSystem when SystemConfig::analyze is
 * set; one instance per system, so `--analyze` composes with
 * harness::runGrid(--jobs>1) — every grid cell owns an independent
 * system and therefore an independent analyzer.
 *
 * Core ids are mapped to dense client indices (the identity traces
 * use) and primitive addresses to dense, never-recycled identities:
 * destroying a primitive retires its identity, so a recycled line
 * starts fresh instead of inheriting the old primitive's state.
 */

#ifndef SYNCRON_ANALYSIS_LIVE_HH
#define SYNCRON_ANALYSIS_LIVE_HH

#include <cstdint>

#include "analysis/analyzers.hh"
#include "analysis/report.hh"
#include "common/addr_map.hh"
#include "sync/observer.hh"
#include "system/config.hh"

namespace syncron::analysis {

/** SyncApi observer feeding the analysis engine during a run. */
class LiveAnalyzer final : public sync::OpObserver
{
  public:
    explicit LiveAnalyzer(const SystemConfig &cfg)
        : cfg_(cfg),
          engine_(MachineShape{cfg.numUnits, cfg.clientCoresPerUnit})
    {}

    // -- sync::OpObserver ----------------------------------------------
    void onIssue(CoreId core, const sync::SyncRequest &req,
                 Tick issued) override;
    void onComplete(CoreId core, const sync::SyncRequest &req,
                    Tick issued, Tick completed) override;
    void onAccess(CoreId core, Addr addr, bool isWrite,
                  Tick tick) override;
    void onDestroy(Addr addr) override;

    /**
     * Forwards a crash/recovery boundary to the engine; @p reminted
     * holds the dense identities recovery re-created (see
     * AnalysisEngine::noteCrashRecovery).
     */
    void
    noteCrashRecovery(Tick tick, const std::set<std::uint64_t> &reminted)
    {
        engine_.noteCrashRecovery(tick, reminted);
    }

    /**
     * Ends the stream and stores the report; call once, when the run
     * completes. Returns the stored report.
     */
    const AnalysisReport &finish();

    bool finished() const { return finished_; }

    /** The report produced by finish() (empty before). */
    const AnalysisReport &report() const { return report_; }

  private:
    OpEvent toEvent(CoreId core, const sync::SyncRequest &req,
                    Tick issued, Tick completed);

    /** Dense, never-recycled identity for the primitive at @p addr. */
    std::uint64_t idOf(Addr addr);

    const SystemConfig &cfg_;
    AnalysisEngine engine_;
    AnalysisReport report_;
    bool finished_ = false;
    common::AddrMap<std::uint64_t> ids_;
    std::uint64_t nextId_ = 0;
};

} // namespace syncron::analysis

#endif // SYNCRON_ANALYSIS_LIVE_HH
