#include "net/link.hh"

#include <algorithm>

#include "common/log.hh"

namespace syncron::net {

LinkFabric::LinkFabric(unsigned numUnits, const LinkParams &params,
                       SystemStats &stats)
    : numUnits_(numUnits), params_(params),
      ctrlTicks_(static_cast<Tick>(params.ctrlCycles) * params.cyclePeriod),
      stats_(stats),
      busyUntil_(static_cast<std::size_t>(numUnits) * numUnits, 0)
{}

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

    ++stats_.linkMessages;
    stats_.linkBits += static_cast<std::uint64_t>(bytes) * 8;
    stats_.linkFlits += (static_cast<std::uint64_t>(bytes) * 8 + 127) / 128;
    stats_.bytesAcrossUnits += bytes;

    return busy + params_.flightTicks;
}

Tick
LinkFabric::unloadedLatency(std::uint32_t bytes) const
{
    return ctrlTicks_ + serializationTicks(bytes) + params_.flightTicks;
}

} // namespace syncron::net
