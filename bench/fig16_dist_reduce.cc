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

#include "BenchCommon.hh"
#include "apps/Reduction.hh"

int
main(int argc, char **argv)
{
    using namespace san::apps;
    const san::bench::BenchOptions &opts =
        san::bench::init(argc, argv, /*threaded=*/true);
    std::printf("Fig 16: Distributed Reduce (512 B vectors)\n");
    std::printf("%6s %14s %14s %9s %8s\n", "nodes", "normal(us)",
                "active(us)", "speedup", "correct");
    int failures = 0;
    std::uint64_t events = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const std::clock_t c0 = std::clock();
    for (unsigned p = 2; p <= 128; p *= 2) {
        ReductionParams params;
        params.nodes = p;
        params.threads = opts.threads;
        params.run = san::bench::faultsAndTelemetry();
        ReductionRun normal =
            runReduction(false, ReduceKind::Distributed, params);
        params.run = san::bench::faultsAndTelemetry();
        ReductionRun active =
            runReduction(true, ReduceKind::Distributed, params);
        std::printf("%6u %14.2f %14.2f %9.2f %8s\n", p,
                    san::sim::toMicros(normal.latency),
                    san::sim::toMicros(active.latency),
                    static_cast<double>(normal.latency) /
                        static_cast<double>(active.latency),
                    (normal.correct && active.correct) ? "yes" : "NO");
        failures += !(normal.correct && active.correct);
        events += normal.events + active.events;
        if (opts.fingerprint) {
            std::printf("fingerprint[normal,%u]: 0x%016llx\n", p,
                        static_cast<unsigned long long>(
                            normal.fingerprint));
            std::printf("fingerprint[active,%u]: 0x%016llx\n", p,
                        static_cast<unsigned long long>(
                            active.fingerprint));
        }
    }
    // Same perf line shape as runFigure(), consumed by
    // tools/perf_baseline's parallel section.
    if (opts.perf) {
        const double cpu_ms =
            1e3 * static_cast<double>(std::clock() - c0) /
            CLOCKS_PER_SEC;
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const double eps = cpu_ms > 0
                               ? static_cast<double>(events) /
                                     (cpu_ms / 1e3)
                               : 0.0;
        std::printf("perf[all]: events=%llu wall_ms=%.3f cpu_ms=%.3f "
                    "events_per_sec=%.0f\n",
                    static_cast<unsigned long long>(events), wall_ms,
                    cpu_ms, eps);
    }
    return failures == 0 ? 0 : 1;
}
