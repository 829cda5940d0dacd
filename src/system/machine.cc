#include "system/machine.hh"

#include <algorithm>

#include "common/log.hh"

namespace syncron {

namespace {

/** Delivery tag: the destination unit in the low bits (unit ids fit
 *  the event key's source-unit field), the message size above. */
constexpr unsigned kTagUnitBits = sim::EventQueue::kSourceBits;

std::uint32_t
deliveryTag(UnitId to, std::uint32_t bits)
{
    SYNCRON_ASSERT(bits < (std::uint32_t{1} << (32 - kTagUnitBits)),
                   "message of " << bits << " bits overflows the "
                                    "delivery tag");
    return bits << kTagUnitBits | to;
}

} // namespace

Machine::Machine(const SystemConfig &cfg)
    : cfg_(cfg), addrSpace_(cfg.numUnits)
{
    cfg_.validate();

    if (lookahead() == 0) {
        SYNCRON_FATAL("zero cross-unit lookahead: xbar.cyclePeriod="
                      << cfg_.xbar.cyclePeriod << ", link.ctrlCycles="
                      << cfg_.link.ctrlCycles << ", link.cyclePeriod="
                      << cfg_.link.cyclePeriod << ", link.flightTicks="
                      << cfg_.link.flightTicks
                      << " - the crossbar period or the link latency "
                         "must be non-zero");
    }
    const unsigned shardCount = std::min(cfg_.simShards, cfg_.numUnits);
    unitsPerShard_ = (cfg_.numUnits + shardCount - 1) / shardCount;
    const unsigned actualShards =
        (cfg_.numUnits + unitsPerShard_ - 1) / unitsPerShard_;
    queues_.reserve(actualShards);
    for (unsigned s = 0; s < actualShards; ++s) {
        queues_.push_back(std::make_unique<sim::EventQueue>());
        queues_.back()->setDeliveryHook(this);
    }
    unitQueue_.reserve(cfg_.numUnits);
    for (unsigned u = 0; u < cfg_.numUnits; ++u)
        unitQueue_.push_back(queues_[shardOf(u)].get());

    const mem::DramParams dramParams =
        mem::DramParams::forTech(cfg_.dramTech);
    xbars_.reserve(cfg_.numUnits);
    drams_.reserve(cfg_.numUnits);
    for (unsigned u = 0; u < cfg_.numUnits; ++u) {
        xbars_.push_back(
            std::make_unique<net::Crossbar>(cfg_.xbar, stats_));
        drams_.push_back(std::make_unique<mem::Dram>(dramParams, stats_));
    }
    links_ = std::make_unique<net::LinkFabric>(cfg_.numUnits, cfg_.link,
                                               stats_);
}

Machine::~Machine() = default;

net::Crossbar &
Machine::xbar(UnitId unit)
{
    SYNCRON_ASSERT(unit < xbars_.size(), "xbar: unknown unit " << unit);
    return *xbars_[unit];
}

mem::Dram &
Machine::dram(UnitId unit)
{
    SYNCRON_ASSERT(unit < drams_.size(), "dram: unknown unit " << unit);
    return *drams_[unit];
}

std::vector<sim::EventQueue *>
Machine::shardQueues()
{
    std::vector<sim::EventQueue *> queues;
    queues.reserve(queues_.size());
    for (auto &q : queues_)
        queues.push_back(q.get());
    return queues;
}

Tick
Machine::lookahead() const
{
    // Floor of any cross-unit path: the source-crossbar traversal of a
    // minimal (one-flit) message, the link controller overhead, and the
    // link flight time. Serialization (>= 1 tick) and the destination
    // crossbar add further margin on top — deliveries carry the real,
    // larger arrival tick; this bound only has to be conservative.
    const net::CrossbarParams &x = cfg_.xbar;
    const Tick srcXbar =
        static_cast<Tick>(x.arbiterCycles + x.hops * x.hopCycles + 1)
        * x.cyclePeriod;
    const net::LinkParams &l = cfg_.link;
    const Tick linkFloor =
        static_cast<Tick>(l.ctrlCycles) * l.cyclePeriod + l.flightTicks;
    return srcXbar + linkFloor;
}

std::uint64_t
Machine::executedEvents() const
{
    std::uint64_t total = 0;
    for (const auto &q : queues_)
        total += q->executed();
    return total;
}

std::uint64_t
Machine::heapEvents() const
{
    std::uint64_t total = 0;
    for (const auto &q : queues_)
        total += q->heapEvents();
    return total;
}

Tick
Machine::maxNow() const
{
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->now());
    return t;
}

Tick
Machine::routeMessage(Tick start, UnitId from, UnitId to,
                      std::uint32_t bits)
{
    if (from == to)
        return xbar(from).transfer(start, bits);

    Tick t = xbar(from).transfer(start, bits);
    t = links_->send(t, from, to, (bits + 7) / 8);
    return xbar(to).transfer(t, bits);
}

Tick
Machine::memoryAccess(Tick start, UnitId from, Addr addr, bool isWrite,
                      std::uint32_t bytes)
{
    const UnitId home = mem::unitOfAddr(addr);
    SYNCRON_ASSERT(home < cfg_.numUnits,
                   "access to address outside the system: " << addr);

    // Request carries the write data; the response carries read data.
    const std::uint32_t reqBits =
        kMemReqHeaderBits + (isWrite ? bytes * 8 : 0);
    const std::uint32_t respBits =
        kMemRespHeaderBits + (isWrite ? 0 : bytes * 8);

    Tick t = routeMessage(start, from, home, reqBits);
    t = dram(home).access(t, addr, isWrite, bytes);
    return routeMessage(t, home, from, respBits);
}

void
Machine::postMessage(Tick start, UnitId from, UnitId to,
                     std::uint32_t bits, Callback cont)
{
    if (from == to) {
        const Tick t = xbar(from).transfer(start, bits);
        eq(from).schedule(t, std::move(cont));
        return;
    }
    // Source-side legs run synchronously on the caller's shard (it owns
    // both the source crossbar and every (from, *) link direction); the
    // destination crossbar is paid by arrive() on the owning shard at
    // the arrival tick, which lies past the open window (>= start +
    // lookahead), so filing into another shard's queue is safe whether
    // that shard has run the window yet or not.
    Tick t = xbar(from).transfer(start, bits);
    t = links_->send(t, from, to, (bits + 7) / 8);
    eq(to).scheduleDelivery(t, from, deliveryTag(to, bits), std::move(cont));
}

void
Machine::memoryAccessAsync(Tick start, UnitId from, Addr addr,
                           bool isWrite, std::uint32_t bytes,
                           Callback onDone)
{
    const UnitId home = mem::unitOfAddr(addr);
    SYNCRON_ASSERT(home < cfg_.numUnits,
                   "access to address outside the system: " << addr);
    if (home == from) {
        const Tick done = memoryAccess(start, from, addr, isWrite, bytes);
        eq(from).schedule(done, std::move(onDone));
        return;
    }
    // Park the completion callback and thread its slot index through
    // both messages — nesting the callback itself would overflow the
    // inline-callback bound.
    const std::uint32_t pend = memPending_.park(std::move(onDone));
    const std::uint32_t reqBits =
        kMemReqHeaderBits + (isWrite ? bytes * 8 : 0);
    postMessage(start, from, home, reqBits,
                [this, addr, isWrite, bytes, from, pend] {
                    const UnitId h = mem::unitOfAddr(addr);
                    const Tick t = dram(h).access(eq(h).now(), addr,
                                                  isWrite, bytes);
                    const std::uint32_t respBits =
                        kMemRespHeaderBits + (isWrite ? 0 : bytes * 8);
                    postMessage(t, h, from, respBits,
                                [this, pend] { completeMemOp(pend); });
                });
}

void
Machine::memoryAccessDetached(Tick start, UnitId from, Addr addr,
                              bool isWrite, std::uint32_t bytes)
{
    const UnitId home = mem::unitOfAddr(addr);
    SYNCRON_ASSERT(home < cfg_.numUnits,
                   "access to address outside the system: " << addr);
    if (home == from) {
        memoryAccess(start, from, addr, isWrite, bytes);
        return;
    }
    const std::uint32_t reqBits =
        kMemReqHeaderBits + (isWrite ? bytes * 8 : 0);
    postMessage(start, from, home, reqBits,
                [this, addr, isWrite, bytes, from] {
                    const UnitId h = mem::unitOfAddr(addr);
                    const Tick t = dram(h).access(eq(h).now(), addr,
                                                  isWrite, bytes);
                    const std::uint32_t respBits =
                        kMemRespHeaderBits + (isWrite ? 0 : bytes * 8);
                    // The response still occupies the path home -> from.
                    postMessage(t, h, from, respBits, [] {});
                });
}

std::uint32_t
Machine::CallbackPark::park(Callback &&cb)
{
    if (freeSlots.empty()) {
        slots.push_back(std::move(cb));
        return static_cast<std::uint32_t>(slots.size() - 1);
    }
    const std::uint32_t idx = freeSlots.back();
    freeSlots.pop_back();
    slots[idx] = std::move(cb);
    return idx;
}

Tick
Machine::arrive(std::uint32_t tag)
{
    const UnitId to = tag & ((1u << kTagUnitBits) - 1);
    return xbar(to).transfer(eq(to).now(), tag >> kTagUnitBits);
}

void
Machine::completeMemOp(std::uint32_t idx)
{
    Callback cb = std::move(memPending_.slots[idx]);
    memPending_.release(idx);
    cb();
}

} // namespace syncron
