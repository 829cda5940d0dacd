#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <functional>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "sync/request.hh"

namespace perfbench {

using namespace syncron;

std::uint64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL
           + static_cast<std::uint64_t>(ts.tv_nsec);
}

// -- Host-speed calibration --------------------------------------------

namespace {

/** The calibration work; returns a checksum so none of it is elided. */
std::uint64_t
calibrationWork()
{
    // Sized to stay in a core's private caches: measured against the
    // simulator's host time over six seeds, a 4 MiB pointer chase moved
    // twice as much as the simulator with host load and a pure ALU loop
    // hardly at all, while these three tracked it.
    constexpr std::uint32_t kNodes = 1u << 14;
    constexpr unsigned kHops = 1u << 21;
    constexpr unsigned kMapOps = 1u << 18;
    constexpr unsigned kHeapOps = 1u << 18;
    constexpr std::size_t kHeapCap = 4096;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::uint64_t sum = 0;

    // Pointer chase over one random cycle (Sattolo's shuffle).
    std::vector<std::uint32_t> link(kNodes);
    std::iota(link.begin(), link.end(), 0u);
    for (std::uint32_t i = kNodes - 1; i > 0; --i)
        std::swap(link[i], link[next() % i]);
    std::uint32_t p = 0;
    for (unsigned i = 0; i < kHops; ++i) {
        p = link[p];
        sum += p;
    }

    // Insert-or-erase churn on a node-based hash map.
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (unsigned i = 0; i < kMapOps; ++i) {
        auto [it, fresh] = map.try_emplace(next() % (kMapOps / 2), i);
        if (!fresh) {
            sum += it->second;
            map.erase(it);
        }
    }

    // Event-queue-like bounded min-heap.
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (unsigned i = 0; i < kHeapOps; ++i) {
        heap.push(next() >> 16);
        if (heap.size() > kHeapCap) {
            sum += heap.top();
            heap.pop();
        }
    }
    return sum + map.size() + heap.size();
}

} // namespace

HostTime
calibrate()
{
    static volatile std::uint64_t sink = 0;
    Stopwatch sw;
    sink = sink + calibrationWork();
    return sw.lap();
}

// -- Tracer ------------------------------------------------------------

int
Tracer::open(const std::string &name, int cell)
{
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, nowNs(), 0, stack_.empty() ? -1 : stack_.back(), cell});
    stack_.push_back(idx);
    return idx;
}

void
Tracer::close(int idx)
{
    if (stack_.empty() || stack_.back() != idx)
        throw std::logic_error("span closed out of order: "
                               + spans_.at(idx).name);
    spans_[idx].endNs = nowNs();
    stack_.pop_back();
}

void
Tracer::addClosed(const std::string &name, int parent,
                  std::uint64_t startNs, std::uint64_t durNs, int cell)
{
    if (!enabled_)
        return;
    spans_.push_back(Span{name, startNs, startNs + durNs, parent, cell});
}

std::vector<Span>
Tracer::take()
{
    if (!stack_.empty())
        throw std::logic_error("spans taken while one is open");
    std::vector<Span> out;
    out.swap(spans_);
    return out;
}

std::vector<std::uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children.at(spans[i].parent).push_back(static_cast<int>(i));
    }
    std::vector<std::uint64_t> self(spans.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        iv.clear();
        for (int c : children[i]) {
            const std::uint64_t a = std::max(spans[c].startNs, s.startNs);
            const std::uint64_t b = std::min(spans[c].endNs, s.endNs);
            if (a < b)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0;
        std::uint64_t curA = 0, curB = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += curB - curA;
        const std::uint64_t dur = s.endNs > s.startNs ? s.endNs - s.startNs
                                                      : 0;
        self[i] = dur - std::min(dur, covered);
    }
    return self;
}

std::map<std::string, std::uint64_t>
selfTimeByName(const std::vector<Span> &spans)
{
    const std::vector<std::uint64_t> self = selfTimes(spans);
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

// -- Order statistics --------------------------------------------------

std::size_t
nearestRankIndex(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    // ceil(q * n), guarded against q * n landing a hair above an
    // integer through rounding (0.99 * 1000 = 990.0000000000001).
    const double x = q * static_cast<double>(n);
    auto rank = static_cast<std::size_t>(std::ceil(x - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

Tick
nearestRank(const std::vector<Tick> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    return sorted[nearestRankIndex(sorted.size(), q) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
bestQuarterMean(std::vector<double> v, bool higherIsBetter)
{
    if (v.empty())
        return 0.0;
    if (higherIsBetter)
        std::sort(v.begin(), v.end(), std::greater<>());
    else
        std::sort(v.begin(), v.end());
    const std::size_t k = std::max<std::size_t>(1, v.size() / 4);
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i)
        sum += v[i];
    return sum / static_cast<double>(k);
}

// -- Observers ---------------------------------------------------------

namespace {

/** Dense client index of @p core, or @p spare for a non-client core. */
unsigned
laneOf(CoreId core, unsigned coresPerUnit, unsigned clientCoresPerUnit,
       unsigned spare)
{
    const unsigned local = core % coresPerUnit;
    if (local >= clientCoresPerUnit)
        return spare;
    const unsigned idx = (core / coresPerUnit) * clientCoresPerUnit + local;
    return idx < spare ? idx : spare;
}

} // namespace

OpRecorder::OpRecorder(const SystemConfig &cfg)
    : coresPerUnit_(cfg.coresPerUnit),
      clientCoresPerUnit_(cfg.clientCoresPerUnit),
      lanes_(cfg.totalClientCores() + 1)
{}

void
OpRecorder::onComplete(CoreId core, const sync::SyncRequest &req,
                       Tick issued, Tick completed)
{
    Lane &lane = lanes_[laneOf(core, coresPerUnit_, clientCoresPerUnit_,
                               static_cast<unsigned>(lanes_.size() - 1))];
    const auto k = static_cast<unsigned>(req.kind());
    const Tick lat = completed - issued;
    ++lane.count[k];
    lane.ticks[k] += lat;
    if (req.kind() == sync::OpKind::LockAcquire)
        lane.acquire.push_back(lat);
}

std::vector<Tick>
OpRecorder::sortedAcquireLatencies() const
{
    std::vector<Tick> all;
    for (const Lane &lane : lanes_)
        all.insert(all.end(), lane.acquire.begin(), lane.acquire.end());
    std::sort(all.begin(), all.end());
    return all;
}

std::array<std::uint64_t, kNumSyncOpKinds>
OpRecorder::counts() const
{
    std::array<std::uint64_t, kNumSyncOpKinds> out{};
    for (const Lane &lane : lanes_) {
        for (unsigned k = 0; k < kNumSyncOpKinds; ++k)
            out[k] += lane.count[k];
    }
    return out;
}

std::array<std::uint64_t, kNumSyncOpKinds>
OpRecorder::ticks() const
{
    std::array<std::uint64_t, kNumSyncOpKinds> out{};
    for (const Lane &lane : lanes_) {
        for (unsigned k = 0; k < kNumSyncOpKinds; ++k)
            out[k] += lane.ticks[k];
    }
    return out;
}

TimingForwarder::TimingForwarder(sync::OpObserver &down,
                                 const SystemConfig &cfg)
    : down_(down), coresPerUnit_(cfg.coresPerUnit),
      clientCoresPerUnit_(cfg.clientCoresPerUnit),
      accs_(cfg.totalClientCores() + 1)
{}

TimingForwarder::Acc &
TimingForwarder::acc(CoreId core)
{
    return accs_[laneOf(core, coresPerUnit_, clientCoresPerUnit_,
                        static_cast<unsigned>(accs_.size() - 1))];
}

void
TimingForwarder::onIssue(CoreId core, const sync::SyncRequest &req,
                         Tick issued)
{
    const std::uint64_t t0 = nowNs();
    down_.onIssue(core, req, issued);
    Acc &a = acc(core);
    a.ns += nowNs() - t0;
    ++a.calls;
}

void
TimingForwarder::onComplete(CoreId core, const sync::SyncRequest &req,
                            Tick issued, Tick completed)
{
    const std::uint64_t t0 = nowNs();
    down_.onComplete(core, req, issued, completed);
    Acc &a = acc(core);
    a.ns += nowNs() - t0;
    ++a.calls;
}

void
TimingForwarder::onAccess(CoreId core, Addr addr, bool isWrite, Tick tick)
{
    const std::uint64_t t0 = nowNs();
    down_.onAccess(core, addr, isWrite, tick);
    Acc &a = acc(core);
    a.ns += nowNs() - t0;
    ++a.calls;
}

void
TimingForwarder::onDestroy(Addr addr)
{
    // Primitive destruction is quiescent-only, so the shared slot is
    // never touched concurrently.
    const std::uint64_t t0 = nowNs();
    down_.onDestroy(addr);
    Acc &a = accs_.back();
    a.ns += nowNs() - t0;
    ++a.calls;
}

std::uint64_t
TimingForwarder::totalNs() const
{
    std::uint64_t sum = 0;
    for (const Acc &a : accs_)
        sum += a.ns;
    return sum;
}

std::uint64_t
TimingForwarder::calls() const
{
    std::uint64_t sum = 0;
    for (const Acc &a : accs_)
        sum += a.calls;
    return sum;
}

// -- Results -----------------------------------------------------------

HostTime
Iteration::setupTotal() const
{
    HostTime sum = extraSetup;
    for (const Cell &c : cells)
        sum += c.setup;
    return sum;
}

HostTime
Iteration::runTotal() const
{
    HostTime sum;
    for (const Cell &c : cells)
        sum += c.run;
    return sum;
}

std::uint64_t
Iteration::syncOps() const
{
    std::uint64_t sum = 0;
    for (const Cell &c : cells)
        sum += c.stats.syncOps;
    return sum;
}

std::vector<double>
simFingerprint(const Cell &cell)
{
    std::vector<double> fp;
    cell.stats.forEach(
        [&fp](const std::string &, double v) { fp.push_back(v); });
    for (const SyncOpLatency &l : cell.stats.syncLatency) {
        fp.push_back(static_cast<double>(l.count));
        fp.push_back(static_cast<double>(l.totalTicks));
        fp.push_back(static_cast<double>(l.minTicks));
        fp.push_back(static_cast<double>(l.maxTicks));
        for (std::uint64_t h : l.hist)
            fp.push_back(static_cast<double>(h));
    }
    for (double v : {static_cast<double>(cell.simTicks),
                     static_cast<double>(cell.ops),
                     static_cast<double>(cell.attempted),
                     static_cast<double>(cell.failed),
                     static_cast<double>(cell.overflowedReqs),
                     static_cast<double>(cell.totalReqs),
                     static_cast<double>(cell.offered),
                     static_cast<double>(cell.late),
                     static_cast<double>(cell.lateTicks),
                     static_cast<double>(cell.dropped),
                     cell.energy.total()})
        fp.push_back(v);
    for (Tick t : cell.acquireLat)
        fp.push_back(static_cast<double>(t));
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
        fp.push_back(static_cast<double>(cell.kindCount[k]));
        fp.push_back(static_cast<double>(cell.kindTicks[k]));
    }
    return fp;
}

} // namespace perfbench
