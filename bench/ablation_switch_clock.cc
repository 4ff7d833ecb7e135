/**
 * @file
 * Ablation: embedded switch-CPU clock.
 *
 * The paper fixes the switch CPU at a quarter of the host clock
 * (500 MHz vs 2 GHz) and stresses that handlers "must not be
 * compute-intensive". This study sweeps the embedded clock for the
 * two extremes among the benchmarks: MPEG-filter (whose active split
 * is a balanced pipeline — the switch is on the critical path) and
 * Select (I/O bound — the switch has slack), both in active+pref.
 */

#include <cstdio>

#include "BenchCommon.hh"
#include "apps/MpegFilter.hh"
#include "apps/Select.hh"

using namespace san;
using namespace san::apps;

int
main(int argc, char **argv)
{
    san::bench::Flags().parse(argc, argv); // takes no flags
    std::printf("Ablation: switch CPU clock (active+pref exec, ms)\n");
    std::printf("%10s %14s %14s %18s\n", "clock", "mpeg", "select",
                "mpeg switch-util");

    for (std::uint64_t hz : {250'000'000ull, 500'000'000ull,
                             1'000'000'000ull, 2'000'000'000ull}) {
        MpegParams mp;
        mp.cluster.active.cpuHz = hz;
        RunStats mpeg = runMpegFilter(Mode::ActivePref, mp);

        SelectParams sp;
        sp.tableBytes = 16ull * 1024 * 1024;
        sp.cluster.active.cpuHz = hz;
        RunStats select = runSelect(Mode::ActivePref, sp);

        std::printf("%7llu MHz %14.3f %14.3f %18.3f\n",
                    static_cast<unsigned long long>(hz / 1'000'000),
                    sim::toMillis(mpeg.execTime),
                    sim::toMillis(select.execTime),
                    mpeg.switchUtilization());
    }
    std::printf("\nMPEG rides the switch CPU (halving the clock "
                "stretches the run;\ndoubling it helps until the host "
                "becomes the bottleneck); Select\nis indifferent — "
                "its handler has an order of magnitude of slack.\n");
    return 0;
}
