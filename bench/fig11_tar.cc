/**
 * @file
 * Fig 11: Tar (overview: exec time, host utilization, host I/O traffic).
 */

#include "BenchCommon.hh"
#include "apps/Tar.hh"

int
main(int argc, char **argv)
{
    san::bench::init(argc, argv);
    return san::bench::runFigure("Fig 11: Tar", "Fig 11: Tar",
                                 san::apps::runTar,
                                 san::apps::TarParams{}, true, false);
}
