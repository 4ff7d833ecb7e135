/**
 * @file
 * Figures 3 and 4: MPEG-filter overview (exec time, host
 * utilization, host I/O traffic across the four configurations) and
 * execution-time breakdown (busy / cache stall / idle for host and
 * switch CPUs).
 *
 * Paper-reported shape: normal+pref ~1.13x over normal; active cases
 * 1.23x / 1.36x over the corresponding normal cases; host I/O
 * traffic reduced by 36.5% (the P-frame share); switch CPU nearly
 * fully utilized in a balanced pipeline with the host.
 */

#include "BenchCommon.hh"
#include "apps/MpegFilter.hh"

int
main(int argc, char **argv)
{
    san::apps::MpegParams params;
    san::bench::Bench bench(argc, argv, /*threaded=*/true);
    if (bench.options().quick)
        params.fileBytes = 512 * 1024;
    params.cluster.threads = bench.options().threads;
    return san::bench::runFigure(bench, "Fig 3: MPEG filter",
                                 "Fig 4: MPEG filter",
                                 san::apps::runMpegFilter, params);
}
