/**
 * @file
 * Table 2: collective reduction semantics. Demonstrates (and
 * verifies against a sequential reference) what Distributed Reduce
 * and Reduce-to-one compute, in both the normal (binomial tree) and
 * active (switch tree) implementations.
 */

#include <cstdio>

#include "BenchCommon.hh"
#include "apps/Reduction.hh"

int
main(int argc, char **argv)
{
    san::bench::Flags().parse(argc, argv); // takes no flags
    using namespace san::apps;
    ReductionParams params;
    params.nodes = 8;

    std::printf("Table 2. Collective Reduction (p=%u, %u B vectors)\n",
                params.nodes, params.vectorBytes);
    std::printf("%-16s %-8s %-10s %-22s %s\n", "operation", "impl",
                "latency", "result(first/last/sum)", "correct");

    int failures = 0;
    struct Row {
        const char *name;
        ReduceKind kind;
    };
    const Row rows[2] = {{"Distr. Red.", ReduceKind::Distributed},
                         {"Reduce-to-one", ReduceKind::ToOne}};
    for (const Row &row : rows) {
        for (bool active : {false, true}) {
            ReductionRun run = runReduction(active, row.kind, params);
            std::printf("%-16s %-8s %8.2f us %-22s %s\n", row.name,
                        active ? "active" : "normal",
                        san::sim::toMicros(run.latency),
                        run.checksum.c_str(),
                        run.correct ? "yes" : "NO");
            failures += !run.correct;
        }
    }
    return failures == 0 ? 0 : 1;
}
