/**
 * @file
 * The main() of every bench binary: runs the benches SYNCRON_BENCH
 * registered in the TUs linked next to it (see harness/report.hh).
 * It lives outside src/ so that the library stays free of a main().
 */

#include "harness/report.hh"

int
main(int argc, char **argv)
{
    return syncron::harness::benchMain(
        syncron::harness::registeredBenches(), argc, argv);
}
