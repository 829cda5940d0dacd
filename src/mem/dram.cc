#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/units.hh"

namespace syncron::mem {

const char *
dramTechName(DramTech tech)
{
    switch (tech) {
      case DramTech::Hbm: return "HBM";
      case DramTech::Hmc: return "HMC";
      case DramTech::Ddr4: return "DDR4";
    }
    return "?";
}

DramParams
DramParams::hbm()
{
    DramParams p;
    p.name = "HBM";
    p.tRcdRead = nsToTicks(7);   // Table 5: nRCDR = 7 ns
    p.tRcdWrite = nsToTicks(6);  // Table 5: nRCDW = 6 ns
    p.tRas = nsToTicks(17);      // Table 5: nRAS = 17 ns
    p.tWr = nsToTicks(8);        // Table 5: nWR = 8 ns
    // 500 MHz, 8 channels, 128-bit channel interface, DDR: one 64 B line
    // bursts in 4 beats = 4 ns on one channel.
    p.tBurst = nsToTicks(4);
    p.channels = 8;
    p.banksPerChannel = 16;
    p.rowBytes = 2048;
    p.pjPerBit = 7.0;            // Table 5: 7 pJ/bit
    return p;
}

DramParams
DramParams::hmc()
{
    DramParams p;
    p.name = "HMC";
    p.tRcdRead = nsToTicks(17);  // Table 5: nRCD = 17 ns
    p.tRcdWrite = nsToTicks(17);
    p.tRas = nsToTicks(34);      // Table 5: nRAS = 34 ns
    p.tWr = nsToTicks(19);       // Table 5: nWR = 19 ns
    // 32 vaults per stack; narrower per-vault TSV interface.
    p.tBurst = nsToTicks(4);
    p.channels = 32;
    p.banksPerChannel = 8;
    p.rowBytes = 256;
    p.pjPerBit = 8.0;  // chosen: slightly above HBM (TSV overhead)
    return p;
}

DramParams
DramParams::ddr4()
{
    DramParams p;
    p.name = "DDR4";
    p.tRcdRead = nsToTicks(16);  // Table 5: nRCD = 16 ns
    p.tRcdWrite = nsToTicks(16);
    p.tRas = nsToTicks(39);      // Table 5: nRAS = 39 ns
    p.tWr = nsToTicks(18);       // Table 5: nWR = 18 ns
    // DDR4-2400, 64-bit DIMM interface: 64 B line = 8 beats ~ 3.3 ns,
    // but a single channel per DIMM serializes heavily.
    p.tBurst = nsToTicks(4);
    p.channels = 1;
    p.banksPerChannel = 16;
    p.rowBytes = 8192;
    p.pjPerBit = 15.0; // chosen: off-chip I/O energy ~2x stacked DRAM
    return p;
}

DramParams
DramParams::forTech(DramTech tech)
{
    switch (tech) {
      case DramTech::Hbm: return hbm();
      case DramTech::Hmc: return hmc();
      case DramTech::Ddr4: return ddr4();
    }
    SYNCRON_PANIC("unknown DRAM technology");
}

Dram::Dram(const DramParams &params, SystemStats &stats)
    : params_(params), stats_(stats),
      banks_(params.channels * params.banksPerChannel)
{
    SYNCRON_ASSERT(!banks_.empty(), "DRAM with no banks");
}

void
Dram::decode(Addr lineAddr, std::uint32_t &bankIdx, std::uint64_t &row) const
{
    // Line-interleave across channels, then banks, so sequential lines
    // spread across the parallel resources (standard NDP mapping).
    const std::uint64_t line = lineAddr / kCacheLineBytes;
    const std::uint32_t channel = line % params_.channels;
    const std::uint64_t afterCh = line / params_.channels;
    const std::uint32_t bank = afterCh % params_.banksPerChannel;
    const std::uint64_t linesPerRow =
        std::max<std::uint64_t>(1, params_.rowBytes / kCacheLineBytes);
    row = afterCh / params_.banksPerChannel / linesPerRow;
    bankIdx = channel * params_.banksPerChannel + bank;
}

Tick
Dram::accessLine(Tick start, Addr lineAddr, bool isWrite)
{
    std::uint32_t bankIdx;
    std::uint64_t row;
    decode(lineAddr, bankIdx, row);
    Bank &bank = banks_[bankIdx];

    const Tick begin = std::max(start, bank.busyUntil);
    const bool rowHit = bank.openRow == row;

    Tick latency = rowHit ? 0 : params_.tRas;
    latency += isWrite ? params_.tRcdWrite : params_.tRcdRead;
    latency += params_.tBurst;
    if (isWrite)
        latency += params_.tWr;

    bank.busyUntil = begin + latency;
    bank.openRow = row;

    if (isWrite)
        ++stats_.dramWrites;
    else
        ++stats_.dramReads;
    if (rowHit)
        ++stats_.dramRowHits;
    else
        ++stats_.dramRowMisses;

    return bank.busyUntil;
}

Tick
Dram::access(Tick start, Addr addr, bool isWrite, std::uint32_t bytes)
{
    SYNCRON_ASSERT(bytes >= 1, "zero-size DRAM access");
    Tick done = start;
    Addr line = lineAlign(addr);
    const Addr lastLine = lineAlign(addr + bytes - 1);
    for (; line <= lastLine; line += kCacheLineBytes)
        done = std::max(done, accessLine(start, line, isWrite));
    return done;
}

} // namespace syncron::mem
