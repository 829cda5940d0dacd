#include "net/crossbar.hh"

namespace syncron::net {

Crossbar::Crossbar(const CrossbarParams &params, SystemStats &stats)
    : params_(params),
      fixedCycles_(params.arbiterCycles + params.hops * params.hopCycles),
      stats_(stats),
      // Model the M/D/1 server as the crossbar switching one
      // average-sized (one-flit payload) message.
      md1_(traversalTicks(1))
{}

Tick
Crossbar::transfer(Tick start, std::uint32_t bits)
{
    const Tick queue = md1_.onArrival(start);
    const std::uint32_t flits = flitsOf(bits);

    ++stats_.xbarMessages;
    stats_.xbarBitHops += static_cast<std::uint64_t>(bits) * params_.hops;
    stats_.xbarFlits += flits;
    stats_.bytesInsideUnits += (bits + 7) / 8;

    Tick arrival = start + queue + traversalTicks(flits);
    if (arrival < lastArrival_)
        arrival = lastArrival_;
    lastArrival_ = arrival;
    return arrival;
}

Tick
Crossbar::unloadedLatency(std::uint32_t bits) const
{
    return traversalTicks(flitsOf(bits));
}

} // namespace syncron::net
