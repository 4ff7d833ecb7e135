/**
 * @file
 * Domain example: building multi-switch fabrics.
 *
 * The paper's experiments run on a single active switch; real system
 * area networks are fabrics. This example builds a k=4 fat-tree
 * (16 hosts, 20 switches) and a small dragonfly (3 groups, 12 hosts)
 * with the net::Topology builders, drives each with the three
 * fabric-wide traffic patterns (uniform random, an adversarial
 * all-groups-crossing permutation, and group-local), and prints what
 * the fabric delivered. Optionally takes a fat-tree arity on the
 * command line: `fabric_demo 8` runs the 128-host k=8 fat-tree.
 *
 * Everything is deterministic: same seed, same numbers, every run.
 *
 * Build & run:  ./build/examples/fabric_demo [k]
 */

#include <cstdio>
#include <cstdlib>

#include "net/Topology.hh"
#include "net/Traffic.hh"
#include "sim/Simulation.hh"

using namespace san;
using namespace san::net;

namespace {

void
runPatterns(const char *what, bool fat_tree, unsigned k,
            const DragonflyParams &df)
{
    struct {
        TrafficParams::Pattern pattern;
        const char *name;
    } const patterns[] = {
        {TrafficParams::Pattern::Uniform, "uniform"},
        {TrafficParams::Pattern::Permutation, "permutation"},
        {TrafficParams::Pattern::GroupLocal, "group-local"},
    };

    bool printed_header = false;
    for (const auto &[pattern, name] : patterns) {
        sim::Simulation sim;
        Fabric fabric(sim);
        const Topology topo =
            fat_tree ? buildFatTree(fabric, FatTreeParams{k})
                     : buildDragonfly(fabric, df);
        if (!printed_header) {
            std::printf("\n%s: %zu hosts, %zu switches, %zu links, "
                        "%u %s\n",
                        what, topo.hosts.size(), topo.switchCount(),
                        fabric.links().size(), topo.groups,
                        fat_tree ? "pods" : "groups");
            std::printf("%-12s %10s %12s %12s %12s %12s\n", "pattern",
                        "delivered", "agg GB/s", "mean lat us",
                        "max lat us", "inter-group");
            printed_header = true;
        }

        TrafficParams p;
        p.pattern = pattern;
        p.messages = 4;
        p.messageBytes = 4096;
        TrafficGen gen(sim, topo.hosts, topo.hostGroup, p);
        gen.start();
        sim.run();

        const TrafficReport r = gen.report();
        if (r.delivered != r.posted) {
            std::printf("LOST MESSAGES: posted %llu delivered %llu\n",
                        static_cast<unsigned long long>(r.posted),
                        static_cast<unsigned long long>(r.delivered));
            std::exit(1);
        }
        std::printf("%-12s %10llu %12.3f %12.2f %12.2f %11.0f%%\n",
                    name, static_cast<unsigned long long>(r.delivered),
                    r.aggregateGBps, r.latencyMeanNs / 1e3,
                    r.latencyMaxNs / 1e3,
                    r.delivered > 0
                        ? 100.0 * static_cast<double>(r.interGroup) /
                              static_cast<double>(r.delivered)
                        : 0.0);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned k = 4;
    if (argc > 1) {
        k = static_cast<unsigned>(std::atoi(argv[1]));
        if (k < 2 || k % 2 != 0) {
            std::fprintf(stderr,
                         "fat-tree arity must be even and >= 2\n");
            return 2;
        }
    }

    std::printf("multi-switch fabrics from src/net/Topology.hh\n");
    char label[32];
    std::snprintf(label, sizeof label, "k=%u fat-tree", k);
    runPatterns(label, true, k, {});
    runPatterns("dragonfly a=2 p=2 h=1", false, 0,
                DragonflyParams{2, 2, 1});
    return 0;
}
