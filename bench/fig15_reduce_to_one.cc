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

#include "BenchCommon.hh"
#include "ReductionTable.hh"

int
main(int argc, char **argv)
{
    san::bench::Flags().parse(argc, argv); // takes no flags
    const int failures = san::bench::printReductionTable(
        "Fig 15: Reduce-to-one (512 B vectors)",
        san::apps::ReduceKind::ToOne);
    return failures == 0 ? 0 : 1;
}
