/**
 * @file
 * DRAM timing and energy model for the memory arrays of one NDP unit.
 *
 * Three technologies are modeled with the parameters of the paper's
 * Table 5:
 *   - HBM  (2.5D NDP config): nRCDR/nRCDW/nRAS/nWR = 7/6/17/8 ns,
 *     500 MHz, 8 channels, 7 pJ/bit
 *   - HMC  (3D NDP config):   nRCD/nRAS/nWR = 17/34/19 ns, 32 vaults
 *   - DDR4 (2D NDP config):   nRCD/nRAS/nWR = 16/39/18 ns, 1 channel/DIMM
 *
 * The model is a banked open-row busy-until model: each bank remembers its
 * open row and the tick until which it is busy. A row hit pays the column
 * access (nRCDR / nRCDW); a row miss additionally pays the row cycle
 * (nRAS) to precharge + activate; writes add the write recovery (nWR).
 * Requests to a busy bank queue behind it. This reproduces the relative
 * access-latency differences between the three technologies that drive
 * the paper's Fig. 18.
 *
 * Devices in this simulator are pure busy-until resources: every timed
 * method takes an explicit start tick and returns the completion tick, so
 * multi-hop paths (crossbar -> link -> crossbar -> DRAM) compose without
 * global-clock coupling.
 */

#ifndef SYNCRON_MEM_DRAM_HH
#define SYNCRON_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace syncron::mem {

/** Which DRAM technology an NDP unit's memory arrays use. */
enum class DramTech { Hbm, Hmc, Ddr4 };

/** Returns a short human-readable name ("HBM", "HMC", "DDR4"). */
const char *dramTechName(DramTech tech);

/** Timing/energy/geometry parameters of one DRAM technology. */
struct DramParams
{
    std::string name;
    Tick tRcdRead;     ///< activate-to-read column access
    Tick tRcdWrite;    ///< activate-to-write column access
    Tick tRas;         ///< row cycle (precharge + activate) on a row miss
    Tick tWr;          ///< write recovery
    Tick tBurst;       ///< data burst time for one 64 B line
    std::uint32_t channels;        ///< parallel channels (or vaults)
    std::uint32_t banksPerChannel; ///< banks per channel
    std::uint32_t rowBytes;        ///< row-buffer size
    double pjPerBit;   ///< access energy per transferred bit

    /** Table 5 HBM 1.0 parameters. */
    static DramParams hbm();
    /** Table 5 HMC 2.1 parameters. */
    static DramParams hmc();
    /** Table 5 DDR4-2400 parameters. */
    static DramParams ddr4();
    /** Parameters for @p tech. */
    static DramParams forTech(DramTech tech);
};

/**
 * The memory arrays of a single NDP unit.
 *
 * access() computes the completion tick of a read or write of @p bytes at
 * @p addr, advancing the involved banks' busy-until state. Accesses that
 * span cache lines are split per line; the completion is the latest line.
 */
class Dram
{
  public:
    Dram(const DramParams &params, SystemStats &stats);

    /**
     * Performs a timed access.
     *
     * @param start   tick at which the request reaches the arrays
     * @param addr    byte address (only low bits select channel/bank/row)
     * @param isWrite true for stores
     * @param bytes   access size in bytes (>= 1)
     * @return absolute tick at which the access completes
     */
    Tick access(Tick start, Addr addr, bool isWrite, std::uint32_t bytes);

    const DramParams &params() const { return params_; }

  private:
    struct Bank
    {
        Tick busyUntil = 0;
        std::uint64_t openRow = ~std::uint64_t{0};
    };

    /** Maps a line address to a bank slot and row id. */
    void decode(Addr lineAddr, std::uint32_t &bankIdx,
                std::uint64_t &row) const;

    Tick accessLine(Tick start, Addr lineAddr, bool isWrite);

    DramParams params_;
    SystemStats &stats_;
    std::vector<Bank> banks_;
};

} // namespace syncron::mem

#endif // SYNCRON_MEM_DRAM_HH
