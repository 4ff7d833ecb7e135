/**
 * @file
 * Switch queueing-policy comparison on the hotspot workloads the
 * policy lab targets (DESIGN.md §10).
 *
 * Two patterns from net/Traffic.hh, each run through four policies:
 *
 *   perm_hotspot  a ring permutation among 7 senders (a load a
 *                 non-blocking 8-port switch carries at line rate)
 *                 with 1/3 of each sender's messages aimed at a
 *                 receive-only hotspot. The finite hot burst piles up
 *                 inside the switch: a 64-cell bounded central queue
 *                 lets it head-of-line block the ring, per-input VOQs
 *                 absorb it (192 cells/input) and keep the ring
 *                 moving. This is the acceptance headline.
 *   incast        pure N-to-1. The hot link is the bottleneck under
 *                 every policy; what differs is fairness and queueing
 *                 delay, not aggregate throughput.
 *
 * Policies: fifo (central output queue bounded at 64 shared cells —
 * the realistic baseline), voq (VOQ + iSLIP), xpoint (buffered
 * crossbar), central (unbounded central queue — the paper's
 * idealization, an upper bound no real switch reaches).
 *
 * All numbers are simulated (deterministic, byte-stable): aggregate
 * goodput over the permutation window, permutation goodput and
 * latency, Jain fairness across senders, and the policy's HOL-block
 * counter. Prints a JSON report on stdout (tools/perf_baseline,
 * schema san-incast-policy-v1) and a table on stderr.
 * --min-voq-speedup X gates agg(voq)/agg(fifo) on perm_hotspot.
 *
 * Usage: incast_policy [--message-bytes N] [--perm N] [--hot N]
 *                      [--min-voq-speedup X]
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "BenchCommon.hh"
#include "net/Fabric.hh"
#include "net/Traffic.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::net;

struct RunSettings {
    std::uint32_t messageBytes = 4096;
    unsigned permMessages = 48;
    unsigned hotMessages = 24;
};

struct PolicyResult {
    std::string policy;
    TrafficReport report;
    std::uint64_t holBlocked = 0;
    std::uint64_t maxGrantWait = 0;
};

PolicyResult
runOne(TrafficParams::Pattern pattern, const std::string &spec,
       const RunSettings &s)
{
    const auto cfg = parsePolicySpec(spec);
    if (!cfg.has_value()) {
        std::fprintf(stderr, "FATAL: bad policy spec %s\n",
                     spec.c_str());
        std::exit(1);
    }

    sim::Simulation sim;
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
    traffic.messageBytes = s.messageBytes;
    traffic.hotMessages = s.hotMessages;
    // Incast sends only the hot messages; perm_hotspot sends both.
    traffic.messages = pattern == TrafficParams::Pattern::Incast
                           ? s.hotMessages
                           : s.permMessages + s.hotMessages;
    TrafficGen gen(sim, hosts, {}, traffic);
    gen.start();
    sim.run();

    PolicyResult r;
    r.policy = sw.policy().name();
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
    r.holBlocked = sw.policy().counters().holBlocked;
    r.maxGrantWait = sw.policy().maxGrantWaitRounds();
    return r;
}

const char *
patternName(TrafficParams::Pattern p)
{
    return p == TrafficParams::Pattern::Incast ? "incast"
                                               : "perm_hotspot";
}

void
printJsonResult(const char *label, const PolicyResult &r, bool last)
{
    const TrafficReport &t = r.report;
    std::printf(
        "      \"%s\": {\"policy\": \"%s\", \"agg_gbps\": %.4f, "
        "\"perm_goodput_gbps\": %.4f, \"perm_done_us\": %.3f, "
        "\"lat_mean_ns\": %.1f, \"lat_max_ns\": %.1f, "
        "\"jain\": %.4f, \"hol_blocked\": %llu, "
        "\"max_grant_wait\": %llu}%s\n",
        label, r.policy.c_str(), t.aggregateGBps, t.goodputGBps,
        static_cast<double>(t.measuredDoneAt) / 1e6, t.latencyMeanNs,
        t.latencyMaxNs, t.jainFairness,
        static_cast<unsigned long long>(r.holBlocked),
        static_cast<unsigned long long>(r.maxGrantWait),
        last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    RunSettings settings;
    double minVoqSpeedup = 0.0;
    bench::Flags()
        .number("--message-bytes", settings.messageBytes)
        .number("--perm", settings.permMessages)
        .number("--hot", settings.hotMessages)
        .number("--min-voq-speedup", minVoqSpeedup)
        .parse(argc, argv);

    const char *specs[] = {"fifo", "voq", "xpoint", "central"};
    const TrafficParams::Pattern patterns[] = {
        TrafficParams::Pattern::PermutationHotspot,
        TrafficParams::Pattern::Incast,
    };

    double fifoAgg = 0.0, voqAgg = 0.0;
    std::printf("{\n  \"schema\": \"san-incast-policy-v1\",\n"
                "  \"message_bytes\": %u,\n  \"perm_messages\": %u,\n"
                "  \"hot_messages\": %u,\n  \"patterns\": {\n",
                settings.messageBytes, settings.permMessages,
                settings.hotMessages);
    for (std::size_t p = 0; p < 2; ++p) {
        const auto pattern = patterns[p];
        std::printf("    \"%s\": {\n", patternName(pattern));
        std::fprintf(stderr,
                     "%-14s %-16s %9s %9s %11s %9s %7s %8s\n",
                     patternName(pattern), "policy", "agg GB/s",
                     "perm GB/s", "latency ns", "done us", "jain",
                     "HOLblk");
        for (std::size_t i = 0; i < 4; ++i) {
            const PolicyResult r = runOne(pattern, specs[i], settings);
            printJsonResult(specs[i], r, i + 1 == 4);
            const TrafficReport &t = r.report;
            std::fprintf(stderr,
                         "%-14s %-16s %9.3f %9.3f %11.0f %9.1f "
                         "%7.4f %8llu\n",
                         "", r.policy.c_str(), t.aggregateGBps,
                         t.goodputGBps, t.latencyMeanNs,
                         static_cast<double>(t.measuredDoneAt) / 1e6,
                         t.jainFairness,
                         static_cast<unsigned long long>(r.holBlocked));
            if (pattern == TrafficParams::Pattern::PermutationHotspot) {
                if (std::strcmp(specs[i], "fifo") == 0)
                    fifoAgg = t.aggregateGBps;
                else if (std::strcmp(specs[i], "voq") == 0)
                    voqAgg = t.aggregateGBps;
            }
        }
        std::printf("    }%s\n", p + 1 < 2 ? "," : "");
    }
    const double voqSpeedup = fifoAgg > 0 ? voqAgg / fifoAgg : 0.0;
    std::printf("  },\n  \"voq_speedup\": %.4f\n}\n", voqSpeedup);
    std::fprintf(stderr,
                 "headline: VOQ+iSLIP %.2fx aggregate goodput over "
                 "the bounded FIFO on perm_hotspot\n",
                 voqSpeedup);

    if (minVoqSpeedup > 0 && voqSpeedup < minVoqSpeedup) {
        std::fprintf(stderr,
                     "FAIL: voq speedup %.2fx below required %.2fx\n",
                     voqSpeedup, minVoqSpeedup);
        return 1;
    }
    return 0;
}
