/**
 * @file
 * Inter-unit serial interconnection links (Table 5: 12.8 GB/s per
 * direction, 40 ns per cache line, 20-cycle controller overhead,
 * 4 pJ/bit).
 *
 * Units are fully connected by point-to-point links; each ordered pair
 * (src, dst) has its own direction with independent bandwidth. A transfer
 * pays: controller overhead + serialization (bytes / bandwidth, which
 * occupies the link and creates back-pressure) + flight latency. The
 * flight latency is the paper's sweep parameter for Figs. 16/17/21 ("40 ns
 * per cache line" by default, up to 9 us).
 */

#ifndef SYNCRON_NET_LINK_HH
#define SYNCRON_NET_LINK_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace syncron::net {

/** Inter-unit link configuration. */
struct LinkParams
{
    double gbPerSec = 12.8;        ///< Table 5: 12.8 GB/s per direction
    Tick flightTicks = 40 * 1000;  ///< Table 5: 40 ns per cache line
    std::uint32_t ctrlCycles = 20; ///< Table 5: 20-cycle
    Tick cyclePeriod = 400;        ///< controller runs at core clock
    double pjPerBit = 4.0;         ///< Table 5: 4 pJ/bit
};

/** All inter-unit links of the system. */
class LinkFabric
{
  public:
    LinkFabric(unsigned numUnits, const LinkParams &params,
               SystemStats &stats);

    /**
     * Sends @p bytes from @p from to @p to (must differ), starting at
     * @p start.
     * @return absolute arrival tick at the destination unit
     */
    Tick send(Tick start, UnitId from, UnitId to, std::uint32_t bytes);

    /** One-message latency on an idle link (for tests). */
    Tick unloadedLatency(std::uint32_t bytes) const;

    const LinkParams &params() const { return params_; }

  private:
    Tick serializationTicks(std::uint32_t bytes) const;

    unsigned numUnits_;
    LinkParams params_;
    Tick ctrlTicks_; ///< ctrlCycles * cyclePeriod
    SystemStats &stats_;
    std::vector<Tick> busyUntil_; ///< per ordered (from, to) pair
};

} // namespace syncron::net

#endif // SYNCRON_NET_LINK_HH
