/**
 * @file
 * Figure 7 + Figure 8: database Select, four configurations.
 *
 * Paper-reported shape: "normal" performs worst (synchronous I/O
 * stalls); the other three are nearly identical (the workload is
 * I/O-bound); active host I/O traffic is 25% of non-active; average
 * normal host utilization is ~21x the active one; active host cache
 * misses drop sharply.
 *
 * Pass --quick to run a 16 MB table instead of the paper's 128 MB.
 */

#include "BenchCommon.hh"
#include "apps/Select.hh"

int
main(int argc, char **argv)
{
    san::apps::SelectParams params;
    if (san::bench::init(argc, argv).quick)
        params.tableBytes = 16ull * 1024 * 1024;
    return san::bench::runFigure("Fig 7: Select", "Fig 8: Select",
                                 san::apps::runSelect, params);
}
