/**
 * @file
 * Hotspot lab: watch the switch queueing policies separate under a
 * hotspot, live.
 *
 * Eight hosts on one 8-port switch run the permutation-with-hotspot
 * pattern (a ring of messages the crossbar could carry at line rate,
 * plus a burst aimed at a receive-only hot node). The run repeats
 * under each policy — bounded central FIFO, VOQ+iSLIP, buffered
 * crossbar, and the unbounded central ideal — printing aggregate
 * goodput, permutation latency, fairness, and how much head-of-line
 * blocking each policy suffered. A metrics-CSV timeline of the VOQ
 * run goes to stderr so the backlog draining is visible interval by
 * interval.
 *
 * Build & run:  ./build/examples/hotspot_lab [policy-spec ...]
 *   policy-spec: kind[:order], e.g. voq:oldest, xpoint:longest, fifo
 *   (a spec net::parsePolicySpec rejects exits 2 before any run)
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "net/Fabric.hh"
#include "net/Traffic.hh"
#include "obs/Metrics.hh"
#include "sim/Simulation.hh"

using namespace san;

namespace {

void
runPolicy(const std::string &spec, const net::SwitchPolicyConfig &cfg,
          bool timeline)
{
    sim::Simulation sim;
    net::Fabric fabric(sim);
    net::SwitchParams params;
    params.ports = 8;
    params.policy = cfg;
    net::Switch &sw = fabric.addSwitch(params);
    std::vector<net::Adapter *> hosts;
    for (unsigned h = 0; h < 8; ++h) {
        net::Adapter &a = fabric.addAdapter("h" + std::to_string(h));
        fabric.connect(sw, h, a);
        hosts.push_back(&a);
    }
    fabric.computeRoutes();

    net::TrafficParams traffic;
    traffic.pattern = net::TrafficParams::Pattern::PermutationHotspot;
    traffic.messageBytes = 4096;
    traffic.messages = 72; // 48 ring + 24 hot
    traffic.hotMessages = 24;
    net::TrafficGen gen(sim, hosts, {}, traffic);

    // Timeline of the policy's buffers, one row per 50 us. Only
    // non-default policies export gauges, and one timeline is enough
    // to see the backlog shape.
    obs::IntervalSampler sampler(std::cerr, sim::us(50));
    const bool sample = timeline && !sw.policy().isPassthrough();
    if (sample) {
        sampler.setRunLabel(spec);
        sw.registerMetrics(sampler.registry());
        sampler.attach(sim.events());
    }

    gen.start();
    const sim::Tick end = sim.run();
    if (sample)
        sampler.finishRun(end);

    const net::TrafficReport r = gen.report();
    if (r.delivered != r.posted) {
        std::printf("LOST MESSAGES: posted %llu delivered %llu\n",
                    static_cast<unsigned long long>(r.posted),
                    static_cast<unsigned long long>(r.delivered));
        std::exit(1);
    }
    std::printf("%-16s agg %5.2f GB/s  ring %5.2f GB/s  "
                "latency %8.1f us (max %8.1f)  jain %.4f  "
                "HOL-blocked %llu\n",
                sw.policy().name(), r.aggregateGBps, r.goodputGBps,
                r.latencyMeanNs / 1e3, r.latencyMaxNs / 1e3,
                r.jainFairness,
                static_cast<unsigned long long>(
                    sw.policy().counters().holBlocked));
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> specs;
    for (int i = 1; i < argc; ++i)
        specs.emplace_back(argv[i]);
    if (specs.empty())
        specs = {"fifo", "voq", "xpoint", "central"};
    std::vector<net::SwitchPolicyConfig> cfgs;
    for (const std::string &spec : specs) {
        const auto cfg = net::parsePolicySpec(spec);
        if (!cfg.has_value()) {
            std::fprintf(stderr, "unknown policy spec: %s\n",
                         spec.c_str());
            return 2;
        }
        cfgs.push_back(*cfg);
    }

    std::printf("permutation-with-hotspot, 8-port switch, "
                "7 senders x (48 ring + 24 hot) x 4 KB\n");
    for (std::size_t i = 0; i < specs.size(); ++i)
        runPolicy(specs[i], cfgs[i], specs[i] == "voq");
    std::printf("\nThe bounded FIFO and the crossbar's shallow "
                "crosspoints let the hot backlog block the ring; "
                "VOQs absorb it per input and track the unbounded "
                "ideal.\n");
    return 0;
}
