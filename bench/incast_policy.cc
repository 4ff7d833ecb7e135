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
 * schema san-incast-policy-v1, whose LIMITS bound voq_speedup =
 * agg(voq)/agg(fifo) on perm_hotspot) and a table on stderr.
 *
 * Usage: incast_policy [--message-bytes N] [--perm N] [--hot N]
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "BenchCommon.hh"
#include "PolicyLab.hh"
#include "obs/Json.hh"

namespace {

using namespace san;
using namespace san::net;

void
writeJsonResult(obs::JsonWriter &json, const char *label,
                const bench::PolicyLabRun &r)
{
    const TrafficReport &t = r.report;
    json.key(label).beginObject()
        .kv("policy", r.policy)
        .kv("agg_gbps", t.aggregateGBps)
        .kv("perm_goodput_gbps", t.goodputGBps)
        .kv("perm_done_us", static_cast<double>(t.measuredDoneAt) / 1e6)
        .kv("lat_mean_ns", t.latencyMeanNs)
        .kv("lat_max_ns", t.latencyMaxNs)
        .kv("jain", t.jainFairness)
        .kv("hol_blocked", r.holBlocked)
        .kv("max_grant_wait", r.maxGrantWait)
        .endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::PolicyLabLoad settings;
    bench::Flags()
        .number("--message-bytes", settings.messageBytes)
        .number("--perm", settings.permMessages)
        .number("--hot", settings.hotMessages)
        .parse(argc, argv);

    const char *specs[] = {"fifo", "voq", "xpoint", "central"};

    double fifoAgg = 0.0, voqAgg = 0.0;
    obs::JsonWriter json(std::cout);
    json.beginObject().kv("schema", "san-incast-policy-v1")
        .kv("message_bytes", settings.messageBytes)
        .kv("perm_messages", settings.permMessages)
        .kv("hot_messages", settings.hotMessages)
        .key("patterns").beginObject();
    for (const auto pattern : bench::policyLabPatterns) {
        json.key(bench::patternName(pattern)).beginObject();
        std::fprintf(stderr,
                     "%-14s %-16s %9s %9s %11s %9s %7s %8s\n",
                     bench::patternName(pattern), "policy", "agg GB/s",
                     "perm GB/s", "latency ns", "done us", "jain",
                     "HOLblk");
        for (std::size_t i = 0; i < 4; ++i) {
            const bench::PolicyLabRun r =
                bench::runPolicyLab(pattern, specs[i], settings);
            writeJsonResult(json, specs[i], r);
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
        json.endObject();
    }
    const double voqSpeedup = fifoAgg > 0 ? voqAgg / fifoAgg : 0.0;
    json.endObject().kv("voq_speedup", voqSpeedup).endObject();
    std::fprintf(stderr,
                 "headline: VOQ+iSLIP %.2fx aggregate goodput over "
                 "the bounded FIFO on perm_hotspot\n",
                 voqSpeedup);
    return 0;
}
