/**
 * @file
 * Figs 11 and 12: Tar (overview: exec time, host utilization, host
 * I/O traffic; then the execution-time breakdown: busy / cache stall /
 * idle).
 */

#include "BenchCommon.hh"
#include "apps/Tar.hh"

int
main(int argc, char **argv)
{
    san::bench::Bench bench(argc, argv);
    return san::bench::runFigure(bench, "Fig 11: Tar", "Fig 12: Tar",
                                 san::apps::runTar,
                                 san::apps::TarParams{});
}
