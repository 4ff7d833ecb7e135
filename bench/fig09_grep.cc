/**
 * @file
 * Fig 9: Grep (overview: exec time, host utilization, host I/O traffic).
 */

#include "BenchCommon.hh"
#include "apps/Grep.hh"

int
main(int argc, char **argv)
{
    san::bench::init(argc, argv);
    return san::bench::runFigure("Fig 9: Grep", "Fig 9: Grep",
                                 san::apps::runGrep,
                                 san::apps::GrepParams{}, true, false);
}
