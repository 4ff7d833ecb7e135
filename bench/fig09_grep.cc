/**
 * @file
 * Figs 9 and 10: Grep (overview: exec time, host utilization, host I/O
 * traffic; then the execution-time breakdown: busy / cache stall /
 * idle).
 */

#include "BenchCommon.hh"
#include "apps/Grep.hh"

int
main(int argc, char **argv)
{
    san::bench::Bench bench(argc, argv);
    return san::bench::runFigure(bench, "Fig 9: Grep", "Fig 10: Grep",
                                 san::apps::runGrep,
                                 san::apps::GrepParams{});
}
