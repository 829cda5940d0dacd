/**
 * @file
 * Open-loop latency-vs-offered-load curves and max sustainable
 * throughput under a p99 SLO, per backend.
 *
 * For each backend the bench sweeps a geometric grid of offered rates
 * (Poisson arrivals by default; --load= overrides the process), runs
 * the open-loop engine at each point, and reports the lock-acquire
 * tail percentiles — the curve whose knee closed-loop throughput bars
 * cannot show. It then binary-searches the highest offered rate whose
 * p99 stays within the SLO (--slo-p99=<ns>, default 2000), reported as
 * the per-backend "max sustainable rate" metric.
 *
 * Inline guarantees (the bench exits non-zero when violated):
 *   - determinism: the first curve point of every backend is re-run at
 *     --sim-shards=1, outside the process memo, and must serialize to
 *     byte-identical curve JSON —
 *     which, when the sweep itself ran sharded, is also the PR 8
 *     cross-shard bit-identity check for the open-loop engine.
 *
 * Composes with --jobs (independent grid cells), --analyze (each cell
 * runs the sync-correctness analyses), and --sim-shards.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/units.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "load/slo.hh"
#include "system/config.hh"

using namespace syncron;
using harness::fmt;

namespace {

constexpr Scheme kSchemes[] = {Scheme::SynCron, Scheme::Hier,
                               Scheme::Central, Scheme::SynCronFlat};

/// Offered-rate sweep, arrivals per core per us (geometric, x4).
constexpr double kRates[] = {0.1, 0.4, 1.6, 6.4};

/// Default p99 SLO when --slo-p99 is not given, ns.
constexpr double kDefaultSloP99Ns = 2000.0;

/// Bisection steps for the max-sustainable-rate search.
constexpr unsigned kSearchIters = 5;

load::SloPoint
pointFrom(const harness::RunOutput &out, double rate)
{
    return load::makeSloPoint(
        rate, out.time, out.offeredOps,
        load::LoadCounters{out.issuedOps, out.droppedOps, out.queuedOps,
                           out.queueDelayTicks},
        out.stats);
}

std::string
rateLabel(double rate)
{
    // fmt(rate, 3) always has a '.', so trailing zeros stop there.
    const std::string num = fmt(rate, 3);
    std::size_t len = num.find_last_not_of('0') + 1;
    if (num[len - 1] == '.')
        --len;
    std::string label(1, 'r');
    label.append(num, 0, len);
    return label;
}

int
run(harness::Bench &bench)
{
    const harness::BenchOptions &opts = bench.opts();
    const double scale = opts.scale;

    load::LoadSpec base;
    base.kind = load::ArrivalKind::Poisson;
    base.opsPerCore = std::max(16u, static_cast<unsigned>(64 * scale));
    base.window = 4;
    base.numLocks = 16;
    base.policy = load::OverloadPolicy::Queue;
    base.seed = 1;
    if (opts.hasLoad)
        base = opts.loadSpec;
    const double sloP99Ns =
        opts.sloP99Ns > 0.0 ? opts.sloP99Ns : kDefaultSloP99Ns;

    // --backend collapses the scheme sweep to one curve: every cell
    // would run the same registry backend anyway.
    std::vector<std::pair<Scheme, std::string>> backends;
    if (!opts.backend.empty()) {
        backends.emplace_back(Scheme::SynCron, opts.backend);
    } else {
        for (Scheme s : kSchemes)
            backends.emplace_back(s, schemeName(s));
    }

    std::vector<load::LoadSpec> specs;
    for (double rate : kRates) {
        specs.push_back(base);
        specs.back().ratePerUs = rate;
    }
    for (const auto &[scheme, name] : backends) {
        for (unsigned r = 0; r < std::size(kRates); ++r) {
            bench.cell(name + "/" + rateLabel(kRates[r]),
                       {opts.makeConfig(scheme),
                        harness::CellSpec::OpenLoop{specs[r]}});
        }
    }
    const std::vector<harness::RunOutput> results = bench.run();

    // -- Assemble curves ----------------------------------------------
    std::vector<load::SloCurve> curves(backends.size());
    std::size_t i = 0;
    for (unsigned b = 0; b < backends.size(); ++b) {
        curves[b].backend = backends[b].second;
        for (double rate : kRates)
            curves[b].points.push_back(pointFrom(results[i++], rate));
    }

    // -- Inline determinism / cross-shard identity check --------------
    // Re-run the first rate point of every backend single-sharded,
    // bypassing the memo; its curve JSON must match the sweep's byte for
    // byte.
    for (unsigned b = 0; b < backends.size(); ++b) {
        SystemConfig cfg = opts.makeConfig(backends[b].first);
        cfg.simShards = 1;
        const harness::RunOutput rerun = harness::runOpenLoop(cfg, specs[0]);
        load::SloCurve a{curves[b].backend, {curves[b].points[0]}};
        load::SloCurve c{curves[b].backend,
                         {pointFrom(rerun, kRates[0])}};
        if (load::curveToJson(a) != load::curveToJson(c)) {
            SYNCRON_FATAL(
                "open-loop run not deterministic for backend '"
                << curves[b].backend << "' at rate " << kRates[0]
                << (opts.simShards > 1
                        ? " (sharded sweep diverged from 1 shard)"
                        : "")
                << ":\n  sweep: " << load::curveToJson(a)
                << "\n  rerun: " << load::curveToJson(c));
        }
    }

    // -- Max sustainable rate under the p99 SLO -----------------------
    harness::TablePrinter summary(
        "max sustainable offered rate under p99 <= "
            + fmt(sloP99Ns, 0) + " ns ("
            + std::string(load::arrivalKindName(base.kind))
            + " arrivals, window " + std::to_string(base.window) + ")",
        {"backend", "max rate[/us/core]", "p99@max[ns]", "probes"});
    for (unsigned b = 0; b < backends.size(); ++b) {
        const Scheme scheme = backends[b].first;
        // Each probe's rate depends on the last one's result, so the
        // search runs its points itself rather than as grid cells.
        auto probe = [&](double rate) {
            load::LoadSpec spec = base;
            spec.ratePerUs = rate;
            const SystemConfig cfg = opts.makeConfig(scheme);
            return pointFrom(harness::runOpenLoop(cfg, spec), rate);
        };
        const load::SloSearchResult res = load::findMaxSustainableRate(
            probe, kRates[0], kRates[std::size(kRates) - 1], sloP99Ns,
            kSearchIters);
        summary.addRow(
            {backends[b].second,
             res.loFailed ? "< " + fmt(kRates[0], 3)
                          : fmt(res.maxRatePerUs, 3)
                                + (res.hiPassed ? "+" : ""),
             fmt(res.p99NsAtMax, 1), std::to_string(res.probes)});
        bench.metric("maxRatePerUs." + backends[b].second,
                     res.maxRatePerUs);
        bench.metric("p99AtMaxNs." + backends[b].second,
                     res.p99NsAtMax);
    }

    // -- Terminal output ----------------------------------------------
    harness::TablePrinter table(
        "open-loop latency vs offered load (lock acquire, ns)",
        {"backend", "rate[/us]", "issued", "drop", "queued", "p50",
         "p90", "p99", "p999"});
    for (const load::SloCurve &curve : curves) {
        for (const load::SloPoint &p : curve.points) {
            table.addRow({curve.backend, fmt(p.ratePerUs, 3),
                          std::to_string(p.issued),
                          std::to_string(p.dropped),
                          std::to_string(p.queued), fmt(p.p50Ns, 1),
                          fmt(p.p90Ns, 1), fmt(p.p99Ns, 1),
                          fmt(p.p999Ns, 1)});
        }
    }
    table.addNote("curves deterministic (checked): first point of "
                  "every backend re-run at --sim-shards=1, byte-equal "
                  "JSON");
    table.print(std::cout);
    summary.print(std::cout);

    for (const load::SloCurve &curve : curves)
        std::cout << "curve " << load::curveToJson(curve) << "\n";

    return 0;
}

} // namespace

SYNCRON_BENCH("slo_curves", run)
