/**
 * @file
 * One run of the switch-policy lab, shared by incast_policy and
 * latency_lineage: 8 hosts on one 8-port switch running a queueing
 * policy, loaded with one of the hotspot patterns of net/Traffic.hh.
 */

#ifndef SAN_BENCH_POLICY_LAB_HH
#define SAN_BENCH_POLICY_LAB_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/Fabric.hh"
#include "net/Traffic.hh"
#include "sim/Simulation.hh"

namespace san::bench {

/** The load every policy faces (--message-bytes, --perm, --hot). */
struct PolicyLabLoad {
    std::uint32_t messageBytes = 4096;
    unsigned permMessages = 48;
    unsigned hotMessages = 24;
};

/** One run's traffic report and the policy's own counters. */
struct PolicyLabRun {
    net::TrafficReport report;
    std::string policy;            //!< the policy's name
    std::uint64_t holBlocked = 0;
    std::uint64_t maxGrantWait = 0; //!< arbitration rounds
};

/** The patterns each lab report covers, in report order. */
inline constexpr net::TrafficParams::Pattern policyLabPatterns[] = {
    net::TrafficParams::Pattern::PermutationHotspot,
    net::TrafficParams::Pattern::Incast,
};

inline const char *
patternName(net::TrafficParams::Pattern p)
{
    return p == net::TrafficParams::Pattern::Incast ? "incast"
                                                    : "perm_hotspot";
}

/**
 * Run @p pattern through the policy @p spec names, reporting to
 * @p tel (null: telemetry off). Exits 1 on a bad spec or a lost
 * message.
 */
inline PolicyLabRun
runPolicyLab(net::TrafficParams::Pattern pattern, const std::string &spec,
             const PolicyLabLoad &load, obs::Telemetry *tel = nullptr)
{
    using namespace net;
    const auto cfg = parsePolicySpec(spec);
    if (!cfg.has_value()) {
        std::fprintf(stderr, "FATAL: bad policy spec %s\n",
                     spec.c_str());
        std::exit(1);
    }
    sim::Simulation sim(sim::RunContext{.telemetry = tel});
    Fabric fabric(sim);
    SwitchParams params;
    params.ports = 8;
    params.policy = *cfg;
    Switch &sw = fabric.addSwitch(params);
    std::vector<Adapter *> hosts;
    for (unsigned h = 0; h < 8; ++h) {
        Adapter &a = fabric.addAdapter("h" + std::to_string(h));
        fabric.connect(sw, h, a);
        hosts.push_back(&a);
    }
    fabric.computeRoutes();

    TrafficParams traffic;
    traffic.pattern = pattern;
    traffic.messageBytes = load.messageBytes;
    traffic.hotMessages = load.hotMessages;
    // Incast sends only the hot messages; perm_hotspot sends both.
    traffic.messages = pattern == TrafficParams::Pattern::Incast
                           ? load.hotMessages
                           : load.permMessages + load.hotMessages;
    TrafficGen gen(sim, hosts, {}, traffic);
    gen.start();
    sim.run();

    PolicyLabRun r;
    r.report = gen.report();
    if (r.report.delivered != r.report.posted) {
        std::fprintf(stderr,
                     "FATAL: %s lost messages: posted %llu delivered "
                     "%llu\n",
                     spec.c_str(),
                     static_cast<unsigned long long>(r.report.posted),
                     static_cast<unsigned long long>(
                         r.report.delivered));
        std::exit(1);
    }
    r.policy = sw.policy().name();
    r.holBlocked = sw.policy().counters().holBlocked;
    r.maxGrantWait = sw.policy().maxGrantWaitRounds();
    return r;
}

} // namespace san::bench

#endif // SAN_BENCH_POLICY_LAB_HH
