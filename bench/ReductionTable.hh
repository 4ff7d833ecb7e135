/**
 * @file
 * The latency table of the reduction figures (fig15_reduce_to_one,
 * fig16_dist_reduce, ext_reduce_to_all): per node count, normal
 * against active.
 */

#ifndef SAN_BENCH_REDUCTION_TABLE_HH
#define SAN_BENCH_REDUCTION_TABLE_HH

#include <cstdio>

#include "apps/Reduction.hh"
#include "sim/Types.hh"

namespace san::bench {

inline void
printReductionHeader(const char *title)
{
    std::printf("%s\n%6s %14s %14s %9s %8s\n", title, "nodes",
                "normal(us)", "active(us)", "speedup", "correct");
}

/** One row; returns whether both runs got the reference result. */
inline bool
printReductionRow(unsigned nodes, const apps::ReductionRun &normal,
                  const apps::ReductionRun &active)
{
    const bool correct = normal.correct && active.correct;
    std::printf("%6u %14.2f %14.2f %9.2f %8s\n", nodes,
                sim::toMicros(normal.latency),
                sim::toMicros(active.latency),
                static_cast<double>(normal.latency) /
                    static_cast<double>(active.latency),
                correct ? "yes" : "NO");
    return correct;
}

/** Run @p kind on 2..128 nodes and print its table under @p title.
 * @return the number of rows with a wrong result. */
inline int
printReductionTable(const char *title, apps::ReduceKind kind)
{
    printReductionHeader(title);
    int failures = 0;
    for (unsigned p = 2; p <= 128; p *= 2) {
        apps::ReductionParams params;
        params.nodes = p;
        const auto normal = apps::runReduction(false, kind, params);
        const auto active = apps::runReduction(true, kind, params);
        failures += !printReductionRow(p, normal, active);
    }
    return failures;
}

} // namespace san::bench

#endif // SAN_BENCH_REDUCTION_TABLE_HH
