/**
 * @file
 * Figs 13 and 14: Parallel sort (overview: exec time, host
 * utilization, host I/O traffic; then the execution-time breakdown:
 * busy / cache stall / idle).
 */

#include "BenchCommon.hh"
#include "apps/ParallelSort.hh"

int
main(int argc, char **argv)
{
    san::bench::Bench bench(argc, argv);
    return san::bench::runFigure(
        bench, "Fig 13: Parallel sort", "Fig 14: Parallel sort",
        san::apps::runParallelSort, san::apps::SortParams{});
}
