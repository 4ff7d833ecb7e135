/**
 * @file
 * Figs 5 and 6: HashJoin (overview: exec time, host utilization, host
 * I/O traffic; then the execution-time breakdown: busy / cache stall /
 * idle).
 */

#include "BenchCommon.hh"
#include "apps/HashJoin.hh"

int
main(int argc, char **argv)
{
    san::apps::HashJoinParams params;
    san::bench::Bench bench(argc, argv);
    if (bench.options().quick) {
        params.rBytes = 4ull * 1024 * 1024;
        params.sBytes = 16ull * 1024 * 1024;
    }
    return san::bench::runFigure(bench, "Fig 5: HashJoin",
                                 "Fig 6: HashJoin",
                                 san::apps::runHashJoin, params);
}
