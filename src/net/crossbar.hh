/**
 * @file
 * Intra-unit interconnect: a buffered crossbar with packet flow control
 * (Table 5: 1-cycle arbiter, 1 cycle per hop, 0.4 pJ/bit per hop, M/D/1
 * queueing latency).
 *
 * Latency of a message of B bits:
 *   (arbiter + hops + ceil(B / flitBits)) core cycles + M/D/1 queue delay
 *
 * Energy and traffic are recorded in SystemStats (xbarMessages,
 * xbarBitHops, bytesInsideUnits). Like all devices, transfer() takes an
 * explicit start tick and returns the completion tick.
 */

#ifndef SYNCRON_NET_CROSSBAR_HH
#define SYNCRON_NET_CROSSBAR_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "net/md1.hh"

namespace syncron::net {

/** Crossbar configuration. */
struct CrossbarParams
{
    std::uint32_t arbiterCycles = 1; ///< Table 5: 1-cycle arbiter
    std::uint32_t hopCycles = 1;     ///< Table 5: 1 cycle per hop
    std::uint32_t hops = 2;          ///< core -> switch -> destination
    std::uint32_t flitBits = 128;    ///< datapath width per cycle
    Tick cyclePeriod = 400;          ///< 2.5 GHz compute-die clock
    double pjPerBitHop = 0.4;        ///< Table 5: 0.4 pJ/bit per hop
};

/** One NDP unit's crossbar. */
class Crossbar
{
  public:
    Crossbar(const CrossbarParams &params, SystemStats &stats);

    /**
     * Sends a @p bits -bit message through the crossbar starting at
     * @p start.
     * @return absolute completion (arrival) tick
     */
    Tick transfer(Tick start, std::uint32_t bits);

    /** Traversal latency with an idle network (for tests). */
    Tick unloadedLatency(std::uint32_t bits) const;

    const CrossbarParams &params() const { return params_; }

  private:
    /** ceil(bits / flitBits). */
    std::uint32_t
    flitsOf(std::uint32_t bits) const
    {
        return (bits + params_.flitBits - 1) / params_.flitBits;
    }

    /** Deterministic traversal time of a @p flits -flit message. */
    Tick
    traversalTicks(std::uint32_t flits) const
    {
        return static_cast<Tick>(fixedCycles_ + flits) * params_.cyclePeriod;
    }

    CrossbarParams params_;
    std::uint32_t fixedCycles_; ///< arbiter + hops * hopCycles
    SystemStats &stats_;
    Md1Estimator md1_;
    /// Arrival monotonicity clamp: the M/D/1 estimate can shrink between
    /// messages, which must not reorder deliveries (the switch is FIFO
    /// per flow; protocol correctness relies on it).
    Tick lastArrival_ = 0;
};

} // namespace syncron::net

#endif // SYNCRON_NET_CROSSBAR_HH
