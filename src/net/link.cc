#include "net/link.hh"

#include <algorithm>

#include "common/log.hh"

namespace syncron::net {

LinkFabric::LinkFabric(unsigned numUnits, const LinkParams &params,
                       SystemStats &stats)
    : LinkFabric(numUnits, params,
                 std::vector<SystemStats *>(numUnits, &stats))
{}

LinkFabric::LinkFabric(unsigned numUnits, const LinkParams &params,
                       std::vector<SystemStats *> perUnitStats)
    : numUnits_(numUnits), params_(params),
      ctrlTicks_(static_cast<Tick>(params.ctrlCycles) * params.cyclePeriod),
      stats_(std::move(perUnitStats)),
      busyUntil_(static_cast<std::size_t>(numUnits) * numUnits, 0)
{
    SYNCRON_ASSERT(stats_.size() == numUnits_,
                   "LinkFabric needs one stats block per unit");
}

Tick
LinkFabric::serializationTicks(std::uint32_t bytes) const
{
    // 12.8 GB/s = 12.8 bytes/ns; ticks are ps.
    const double ns = static_cast<double>(bytes) / params_.gbPerSec;
    return static_cast<Tick>(ns * 1000.0) + 1;
}

Tick
LinkFabric::send(Tick start, UnitId from, UnitId to, std::uint32_t bytes)
{
    SYNCRON_ASSERT(from != to, "inter-unit send within one unit");
    SYNCRON_ASSERT(from < numUnits_ && to < numUnits_,
                   "link endpoints out of range: " << from << "->" << to);

    Tick &busy = busyUntil_[static_cast<std::size_t>(from) * numUnits_ + to];
    const Tick begin = std::max(start + ctrlTicks_, busy);
    const Tick serial = serializationTicks(bytes);
    busy = begin + serial;

    SystemStats &st = *stats_[from];
    ++st.linkMessages;
    st.linkBits += static_cast<std::uint64_t>(bytes) * 8;
    st.linkFlits += (static_cast<std::uint64_t>(bytes) * 8 + 127) / 128;
    st.bytesAcrossUnits += bytes;

    return busy + params_.flightTicks;
}

Tick
LinkFabric::unloadedLatency(std::uint32_t bytes) const
{
    return ctrlTicks_ + serializationTicks(bytes) + params_.flightTicks;
}

} // namespace syncron::net
