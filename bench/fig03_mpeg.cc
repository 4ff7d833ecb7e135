/**
 * @file
 * Figure 3: MPEG-filter overview (exec time, host utilization, host
 * I/O traffic across the four configurations).
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
    const san::bench::BenchOptions &opts =
        san::bench::init(argc, argv, /*threaded=*/true);
    if (opts.quick)
        params.fileBytes = 512 * 1024;
    params.cluster.threads = opts.threads;
    return san::bench::runFigure("Fig 3: MPEG filter", "",
                                 san::apps::runMpegFilter, params, true,
                                 false);
}
