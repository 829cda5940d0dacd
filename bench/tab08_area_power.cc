/**
 * @file
 * Reproduces paper Table 8: area and power of one Synchronization
 * Engine (SPU via Aladdin @40 nm, ST and indexing counters via CACTI)
 * compared against an ARM Cortex-A7, plus the Table 4 qualitative
 * comparison with prior hardware synchronization mechanisms. Also
 * reports the model's scaling across the Fig. 22/23 ST sizes.
 *
 * Purely analytic — no simulations run, so --jobs has nothing to
 * parallelize; --json still emits the (empty-config) bench record.
 */

#include <iostream>

#include "harness/report.hh"
#include "harness/table.hh"
#include "syncron/area_model.hh"

using namespace syncron;
using harness::fmt;

namespace {

int
run(harness::Bench &)
{
    std::cout << engine::formatAreaPowerTable(engine::seAreaPower())
              << "\n";

    harness::TablePrinter scaling(
        "SE area/power scaling with ST size (analytic model)",
        {"ST entries", "ST [mm^2]", "total [mm^2]", "power [mW]"});
    for (unsigned entries : {8u, 16u, 32u, 48u, 64u, 128u, 256u}) {
        auto se = engine::seAreaPower(entries);
        scaling.addRow({std::to_string(entries), fmt(se.stMm2, 4),
                        fmt(se.totalMm2, 4), fmt(se.powerMw, 2)});
    }
    scaling.print(std::cout);

    harness::TablePrinter cmp(
        "Table 4: qualitative comparison with prior mechanisms",
        {"", "SSB", "LCU", "MiSAR", "SynCron"});
    cmp.addRow({"Supported primitives", "1", "1", "3", "4"});
    cmp.addRow({"ISA extensions", "2", "2", "7", "2"});
    cmp.addRow({"Spin-wait approach", "yes", "yes", "no", "no"});
    cmp.addRow({"Direct notification", "no", "yes", "yes", "yes"});
    cmp.addRow({"Target system", "uniform", "uniform", "uniform",
                "non-uniform"});
    cmp.addRow({"Overflow management", "partially integrated",
                "partially integrated", "handled by programmer",
                "fully integrated"});
    cmp.print(std::cout);
    return 0;
}

} // namespace

SYNCRON_BENCH("tab08_area_power", run)
