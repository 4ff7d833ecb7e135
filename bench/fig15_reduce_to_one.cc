/**
 * @file
 * Figure 15: Reduce-to-one latency, normal (binomial/MST software
 * tree) vs active (switch-tree reduction), 2..128 nodes.
 *
 * Paper-reported shape: the active system's latency is nearly flat
 * in p (alpha + gamma + ceil(log_{N/2} p) * delta) while the normal
 * system grows as ceil(log2 p)(alpha + lambda); speedup reaches
 * ~5.61 at 128 nodes.
 */

#include <cstdio>

#include "BenchCommon.hh"
#include "apps/Reduction.hh"

int
main(int argc, char **argv)
{
    san::bench::Flags().parse(argc, argv); // takes no flags
    using namespace san::apps;
    std::printf("Fig 15: Reduce-to-one (512 B vectors)\n");
    std::printf("%6s %14s %14s %9s %8s\n", "nodes", "normal(us)",
                "active(us)", "speedup", "correct");
    int failures = 0;
    for (unsigned p = 2; p <= 128; p *= 2) {
        ReductionParams params;
        params.nodes = p;
        ReductionRun normal =
            runReduction(false, ReduceKind::ToOne, params);
        ReductionRun active =
            runReduction(true, ReduceKind::ToOne, params);
        std::printf("%6u %14.2f %14.2f %9.2f %8s\n", p,
                    san::sim::toMicros(normal.latency),
                    san::sim::toMicros(active.latency),
                    static_cast<double>(normal.latency) /
                        static_cast<double>(active.latency),
                    (normal.correct && active.correct) ? "yes" : "NO");
        failures += !(normal.correct && active.correct);
    }
    return failures == 0 ? 0 : 1;
}
