#include "trace/format.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>

#include "common/log.hh"
#include "trace/codec.hh"
#include "trace/mmap_reader.hh"

namespace syncron::trace {

const char *
primKindName(PrimKind kind)
{
    switch (kind) {
      case PrimKind::Lock: return "lock";
      case PrimKind::Barrier: return "barrier";
      case PrimKind::Semaphore: return "semaphore";
      case PrimKind::CondVar: return "condvar";
    }
    return "?";
}

PrimKind
primKindOf(sync::OpKind kind)
{
    switch (kind) {
      case sync::OpKind::LockAcquire:
      case sync::OpKind::LockRelease:
        return PrimKind::Lock;
      case sync::OpKind::BarrierWaitWithinUnit:
      case sync::OpKind::BarrierWaitAcrossUnits:
        return PrimKind::Barrier;
      case sync::OpKind::SemWait:
      case sync::OpKind::SemPost:
        return PrimKind::Semaphore;
      case sync::OpKind::CondWait:
      case sync::OpKind::CondSignal:
      case sync::OpKind::CondBroadcast:
        return PrimKind::CondVar;
    }
    SYNCRON_PANIC("unknown OpKind " << static_cast<unsigned>(kind));
}

std::array<std::uint64_t, kNumSyncOpKinds>
Trace::opCounts() const
{
    std::array<std::uint64_t, kNumSyncOpKinds> counts{};
    for (const TraceRecord &r : records)
        ++counts[static_cast<unsigned>(r.kind)];
    return counts;
}

double
Trace::hottestLockShare() const
{
    std::vector<std::uint64_t> perPrim(primitives.size(), 0);
    std::uint64_t lockOps = 0;
    for (const TraceRecord &r : records) {
        if (r.kind != sync::OpKind::LockAcquire)
            continue;
        ++perPrim[r.prim];
        ++lockOps;
    }
    if (lockOps == 0)
        return 0.0;
    std::uint64_t hottest = 0;
    for (std::uint64_t c : perPrim)
        hottest = std::max(hottest, c);
    return static_cast<double>(hottest) / static_cast<double>(lockOps);
}

void
TraceWriter::write(const Trace &trace)
{
    VarintWriter out(os_);
    encodeTrace(out, trace);
    out.flush();
    if (!os_)
        SYNCRON_FATAL("stream error while writing trace");
}

void
writeTraceFile(const Trace &trace, const std::string &path)
{
    // A multi-cell bench run with --trace-out builds one system per
    // grid cell, and every cell's run() lands here with the same path:
    // the file then holds only the last cell's stream. That is legal
    // (and sequential — the --jobs=1 guard rules out races) but easy
    // to mistake for a whole-bench capture, so the overwrite warns.
    {
        static std::mutex mutex;
        static std::map<std::string, unsigned> writes;
        std::lock_guard<std::mutex> lock(mutex);
        if (++writes[path] == 2) {
            SYNCRON_WARN("rewriting trace file '"
                         << path
                         << "' (multi-cell bench? the file keeps only "
                            "the last run's stream)");
        }
    }

    std::ofstream f(path, std::ios::binary);
    if (!f)
        SYNCRON_FATAL("cannot write trace file '" << path << "'");
    TraceWriter(f).write(trace);
    // The last buffered bytes only reach the file at close: a full
    // disk surfaces here, not in write().
    f.close();
    if (!f)
        SYNCRON_FATAL("cannot finish writing trace file '" << path << "'");
}

Trace
readTraceFile(const std::string &path)
{
    return MappedTraceReader(path).materialize();
}

} // namespace syncron::trace
