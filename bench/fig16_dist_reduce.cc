/**
 * @file
 * Figure 16: Distributed Reduce latency, normal (binomial reduce +
 * binomial scatter) vs active (switch-tree reduce + root
 * redistribution handler), 2..128 nodes.
 *
 * Paper-reported shape: like Reduce-to-one with slightly larger
 * normal latencies (the scatter rounds); active speedup reaches
 * ~5.92 at 128 nodes.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "BenchCommon.hh"
#include "ReductionTable.hh"

int
main(int argc, char **argv)
{
    using namespace san::apps;
    const char *noCluster = "this bench builds no apps::Cluster";
    san::bench::Flags own;
    own.reject("--stats-json", noCluster)
        .reject("--metrics-csv", noCluster)
        .reject("--metrics-interval", noCluster)
        .reject("--latency-report",
                "this bench's runs fold no latency tables");
    san::bench::Bench bench(argc, argv, /*threaded=*/true, std::move(own));
    const san::bench::BenchOptions &opts = bench.options();
    san::bench::printReductionHeader(
        "Fig 16: Distributed Reduce (512 B vectors)");
    int failures = 0;
    std::uint64_t events = 0;
    san::bench::RunTime total;
    for (unsigned p = 2; p <= 128; p *= 2) {
        const auto reduce = [&](bool active) {
            const std::string label =
                std::string(active ? "active" : "normal") + "," +
                std::to_string(p);
            const auto run = bench.run(
                label, [&](const san::sim::RunContext &context) {
                    ReductionParams params;
                    params.nodes = p;
                    params.threads = opts.threads;
                    params.run = context;
                    return runReduction(active, ReduceKind::Distributed,
                                        params);
                });
            total.wallMs += run.time.wallMs;
            total.cpuMs += run.time.cpuMs;
            events += run.result.events;
            return run.result;
        };
        const ReductionRun normal = reduce(false);
        const ReductionRun active = reduce(true);
        failures += !san::bench::printReductionRow(p, normal, active);
        if (opts.fingerprint) {
            std::printf("fingerprint[normal,%u]: 0x%016llx\n", p,
                        static_cast<unsigned long long>(
                            normal.fingerprint));
            std::printf("fingerprint[active,%u]: 0x%016llx\n", p,
                        static_cast<unsigned long long>(
                            active.fingerprint));
        }
    }
    // One perf line for the whole figure, consumed by
    // tools/perf_baseline's parallel section.
    bench.printPerf(std::cout, "all", events, total);
    return failures == 0 ? 0 : 1;
}
