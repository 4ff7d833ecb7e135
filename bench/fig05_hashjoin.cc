/**
 * @file
 * Fig 5: HashJoin (overview: exec time, host utilization, host I/O traffic).
 */

#include "BenchCommon.hh"
#include "apps/HashJoin.hh"

int
main(int argc, char **argv)
{
    san::apps::HashJoinParams params;
    if (san::bench::init(argc, argv).quick) {
        params.rBytes = 4ull * 1024 * 1024;
        params.sBytes = 16ull * 1024 * 1024;
    }
    return san::bench::runFigure("Fig 5: HashJoin", "Fig 5: HashJoin",
                                 san::apps::runHashJoin, params, true,
                                 false);
}
