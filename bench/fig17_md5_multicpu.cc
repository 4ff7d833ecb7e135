/**
 * @file
 * Figure 17: MD5 with multiple switch processors.
 *
 * Paper-reported shape: with one switch CPU the active cases are
 * *slower* than normal (the 500 MHz embedded core does all the
 * chained work); the K-chain interleaved reformulation on 4 switch
 * CPUs recovers speedups of ~1.50 (no prefetch) and ~1.18 (with
 * prefetch).
 */

#include <cstdio>

#include "BenchCommon.hh"
#include "apps/Md5App.hh"

int
main(int argc, char **argv)
{
    san::bench::Flags().parse(argc, argv); // takes no flags
    using namespace san::apps;
    Md5Params params;

    std::printf("Fig 17: MD5 with multiple switch CPUs (256 KB)\n");
    std::printf("%-18s %12s %10s %s\n", "config", "exec(ms)",
                "vs normal", "digest");

    // Normal baselines.
    RunStats normal = runMd5(Mode::Normal, params);
    RunStats normal_pref = runMd5(Mode::NormalPref, params);
    std::printf("%-18s %12.3f %10.2f %s\n", "normal",
                san::sim::toMillis(normal.execTime), 1.0,
                normal.checksum.c_str());
    std::printf("%-18s %12.3f %10.2f %s\n", "normal+pref",
                san::sim::toMillis(normal_pref.execTime), 1.0,
                normal_pref.checksum.c_str());

    for (unsigned cpus : {1u, 2u, 4u}) {
        params.switchCpus = cpus;
        RunStats a = runMd5(Mode::Active, params);
        RunStats ap = runMd5(Mode::ActivePref, params);
        char label[32];
        std::snprintf(label, sizeof(label), "active(%ucpu)", cpus);
        std::printf("%-18s %12.3f %10.2f %s\n", label,
                    san::sim::toMillis(a.execTime),
                    static_cast<double>(normal.execTime) /
                        static_cast<double>(a.execTime),
                    a.checksum.c_str());
        std::snprintf(label, sizeof(label), "active+pref(%ucpu)",
                      cpus);
        std::printf("%-18s %12.3f %10.2f %s\n", label,
                    san::sim::toMillis(ap.execTime),
                    static_cast<double>(normal_pref.execTime) /
                        static_cast<double>(ap.execTime),
                    ap.checksum.c_str());
    }
    return 0;
}
