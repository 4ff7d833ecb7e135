/**
 * @file
 * Fig 13: Parallel sort (overview: exec time, host utilization, host I/O traffic).
 */

#include "BenchCommon.hh"
#include "apps/ParallelSort.hh"

int
main(int argc, char **argv)
{
    san::bench::init(argc, argv);
    return san::bench::runFigure(
        "Fig 13: Parallel sort", "Fig 13: Parallel sort",
        san::apps::runParallelSort, san::apps::SortParams{}, true, false);
}
