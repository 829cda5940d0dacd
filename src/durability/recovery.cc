#include "durability/recovery.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/trace_analysis.hh"
#include "common/log.hh"

namespace syncron::durability {

namespace {

bool
isBarrierWait(sync::OpKind k)
{
    return k == sync::OpKind::BarrierWaitWithinUnit
           || k == sync::OpKind::BarrierWaitAcrossUnits;
}

bool
isCondFamily(sync::OpKind k)
{
    return k == sync::OpKind::CondWait || k == sync::OpKind::CondSignal
           || k == sync::OpKind::CondBroadcast;
}

/**
 * Largest j <= limit such that after the core's first j ops it holds
 * no lock and every semaphore it waited on has been re-posted — the
 * per-core quiescent points a rollback cut may land on.
 */
std::uint64_t
lastQuiescent(const trace::Trace &ref,
              const std::vector<std::uint32_t> &ops, std::uint64_t limit)
{
    std::map<std::uint32_t, std::int64_t> held; // lock/sem imbalance
    std::size_t nonZero = 0;
    auto adjust = [&](std::uint32_t prim, std::int64_t delta) {
        std::int64_t &v = held[prim];
        if (v != 0)
            --nonZero;
        v += delta;
        if (v != 0)
            ++nonZero;
    };

    std::uint64_t last = 0;
    for (std::uint64_t j = 0; j < limit; ++j) {
        const trace::TraceRecord &r = ref.records[ops[j]];
        switch (r.kind) {
          case sync::OpKind::LockAcquire: adjust(r.prim, 1); break;
          case sync::OpKind::LockRelease: adjust(r.prim, -1); break;
          case sync::OpKind::SemWait: adjust(r.prim, 1); break;
          case sync::OpKind::SemPost: adjust(r.prim, -1); break;
          default: break;
        }
        if (nonZero == 0)
            last = j + 1;
    }
    return last;
}

} // namespace

RecoveryResult
RecoveryEngine::recover() const
{
    RecoveryResult out;
    auto fail = [&out](std::string msg) {
        out.violations.push_back(std::move(msg));
    };

    // ---- 1. Validate the image against the reference log -------------
    if (image_.log.numUnits != ref_.numUnits
        || image_.log.clientCoresPerUnit != ref_.clientCoresPerUnit) {
        fail("machine shape mismatch between image and reference log");
        return out;
    }
    if (image_.log.primitives.size() > ref_.primitives.size()) {
        fail("image primitive table larger than the reference's");
        return out;
    }
    for (std::size_t i = 0; i < image_.log.primitives.size(); ++i) {
        if (!(image_.log.primitives[i] == ref_.primitives[i])) {
            std::ostringstream os;
            os << "image primitive " << i
               << " diverges from the reference table";
            fail(os.str());
            return out;
        }
    }
    if (image_.log.records.size() > ref_.records.size()) {
        fail("durable log longer than the reference log");
        return out;
    }
    for (std::size_t i = 0; i < image_.log.records.size(); ++i) {
        if (!(image_.log.records[i] == ref_.records[i])) {
            std::ostringstream os;
            os << "durable record " << i
               << " is not a prefix of the reference log "
                  "(non-deterministic capture or torn WAL)";
            fail(os.str());
            return out;
        }
    }
    for (const trace::TraceRecord &r : ref_.records) {
        if (isCondFamily(r.kind)) {
            fail("cond-family records are outside recovery's scope");
            return out;
        }
    }

    const std::uint32_t cores = ref_.numClientCores();
    out.durableRecords = image_.durable();

    // ---- 2. Rebuild the recovered state and check invariants ---------
    analysis::SyncStateModel recovered(analysis::traceShape(ref_));
    for (const trace::TraceRecord &r : image_.log.records)
        recovered.onComplete(analysis::traceEvent(ref_, r));
    recovered.checkInvariants();
    for (const analysis::Finding &f : recovered.findings())
        fail("recovered state: " + f.message);

    // ---- 3. Consistent rollback cut ----------------------------------
    // Per-core program order: the per-core subsequence of the (global,
    // completion-ordered) reference log. The durable set of a core is
    // a program-order prefix of it (a prefix of the global stream
    // restricted to one core is a prefix of that core's subsequence).
    std::vector<std::vector<std::uint32_t>> ops(cores);
    for (std::uint32_t i = 0; i < ref_.records.size(); ++i)
        ops[ref_.records[i].core].push_back(i);
    std::vector<std::uint64_t> durable(cores, 0);
    for (const trace::TraceRecord &r : image_.log.records)
        ++durable[r.core];

    // Barrier rounds: the k-th wait of each participant on one barrier
    // forms round k; a cut must re-run a round with all of its
    // participants or with none (arity is all-or-nothing).
    using RoundKey = std::pair<std::uint32_t, std::uint64_t>;
    std::map<RoundKey, std::vector<std::pair<std::uint32_t,
                                             std::uint64_t>>>
        rounds; // (prim, round) -> [(core, per-core index)]
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::map<std::uint32_t, std::uint64_t> waitCount;
        for (std::uint64_t j = 0; j < ops[c].size(); ++j) {
            const trace::TraceRecord &r = ref_.records[ops[c][j]];
            if (isBarrierWait(r.kind))
                rounds[{r.prim, waitCount[r.prim]++}].emplace_back(c, j);
        }
    }

    std::set<RoundKey> forced; // rounds that must fully re-run
    for (const auto &[key, members] : rounds) {
        for (const auto &[c, j] : members) {
            if (j >= durable[c]) {
                forced.insert(key);
                break;
            }
        }
    }

    std::vector<std::uint64_t> cut(cores, 0);
    for (bool changed = true; changed;) {
        std::vector<std::uint64_t> cap(cores);
        for (std::uint32_t c = 0; c < cores; ++c)
            cap[c] = ops[c].size();
        for (const RoundKey &key : forced) {
            for (const auto &[c, j] : rounds.at(key))
                cap[c] = std::min(cap[c], j);
        }
        for (std::uint32_t c = 0; c < cores; ++c) {
            cut[c] = lastQuiescent(ref_, ops[c],
                                   std::min(durable[c], cap[c]));
        }
        changed = false;
        for (const auto &[key, members] : rounds) {
            if (forced.count(key) != 0)
                continue;
            for (const auto &[c, j] : members) {
                if (j >= cut[c]) {
                    // One participant re-waits this round; all must.
                    forced.insert(key);
                    changed = true;
                    break;
                }
            }
        }
    }

    for (std::uint32_t c = 0; c < cores; ++c)
        out.rolledBack += durable[c] - cut[c];

    // ---- 4. Split the reference log at the cut -----------------------
    out.prefix.numUnits = out.resume.numUnits = ref_.numUnits;
    out.prefix.clientCoresPerUnit = out.resume.clientCoresPerUnit =
        ref_.clientCoresPerUnit;
    out.prefix.primitives = out.resume.primitives = ref_.primitives;
    std::vector<std::uint64_t> cursor(cores, 0);
    for (const trace::TraceRecord &r : ref_.records) {
        if (cursor[r.core]++ < cut[r.core])
            out.prefix.records.push_back(r);
        else
            out.resume.records.push_back(r);
    }
    return out;
}

} // namespace syncron::durability
