/**
 * @file
 * Tail-latency lineage lab: where do the p99 nanoseconds of a
 * congested fabric actually go?
 *
 * Runs the policy lab's two hotspot patterns (net/Traffic.hh) through
 * the bounded central FIFO and the VOQ+iSLIP policies with packet
 * lineage telemetry sampling every packet, and reports per-stage
 * latency percentiles (tx-queue wait, policy wait, switch queueing,
 * end-to-end) from the folded INT records. The headline the numbers
 * show: under perm_hotspot the central FIFO's p99 end-to-end latency
 * is dominated by switch queueing (HOL blocking behind the hot
 * output), while VOQs move the wait back into the per-input queues
 * and cut the permutation flows' tail.
 *
 * Also measures the *passive* telemetry overhead the ISSUE's ≤2%
 * budget gates: the same incast workload is timed with the hooks
 * absent (no collector in the run context) and with the hooks armed
 * at sample rate 0 (every branch taken, no packet sampled), best-of-N process
 * CPU time. Note this is a packet-path measurement by necessity —
 * micro_kernel exercises the bare event kernel, which has no packets
 * and therefore no telemetry branches at all. Reported as
 * "telemetry_overhead" and gated by tools/perf_baseline
 * --max-telemetry-overhead.
 *
 * Prints a JSON report on stdout (schema san-latency-lineage-v1) and
 * a table on stderr. All latency numbers are simulated integer
 * nanoseconds from log-bucketed tick histograms: byte-stable across
 * repeats and compilers.
 *
 * Usage: latency_lineage [--message-bytes N] [--perm N] [--hot N]
 *                        [--overhead-reps N] [--overhead-iters N]
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "BenchCommon.hh"
#include "PolicyLab.hh"
#include "obs/Json.hh"
#include "obs/Telemetry.hh"

namespace {

using namespace san;
using namespace san::net;

struct StageCut {
    std::uint64_t samples = 0;
    std::uint64_t p50 = 0; //!< ns
    std::uint64_t p99 = 0; //!< ns
    std::uint64_t max = 0; //!< ns
};

struct PolicyResult {
    std::string policy;
    std::uint64_t holBlocked = 0;
    StageCut txQueue, policyWait, switchQueue, endToEnd;
};

StageCut
cut(const obs::LatencyHistogram &h)
{
    StageCut c;
    c.samples = h.samples();
    c.p50 = h.percentile(5000) / 1000;
    c.p99 = h.percentile(9900) / 1000;
    c.max = h.max() / 1000;
    return c;
}

/** One policy run with a collector of its own, sampling every packet. */
PolicyResult
runOne(TrafficParams::Pattern pattern, const std::string &spec,
       const bench::PolicyLabLoad &s)
{
    obs::Telemetry tel(1);
    PolicyResult r;
    r.policy = spec;
    r.holBlocked = bench::runPolicyLab(pattern, spec, s, &tel).holBlocked;
    const obs::TelemetryStats t = tel.finishRun();
    using obs::FlowClass;
    using obs::Stage;
    r.txQueue = cut(t.stageHist(FlowClass::Data, Stage::TxQueue));
    r.policyWait =
        cut(t.stageHist(FlowClass::Data, Stage::PolicyWait));
    r.switchQueue =
        cut(t.stageHist(FlowClass::Data, Stage::SwitchQueue));
    r.endToEnd = cut(t.stageHist(FlowClass::Data, Stage::EndToEnd));
    return r;
}

/**
 * Process CPU seconds for @p iters back-to-back incast workloads
 * reporting to @p tel (null = hooks off, armed-at-rate-0 = every
 * hook branch taken, nothing sampled). One workload is well under a
 * millisecond — below clock() quantization — so each timed sample
 * batches enough iterations to make a sub-2% overhead resolvable.
 * The caller interleaves off/armed samples so a sustained
 * CPU-throttle window (common on shared CI machines) cannot land on
 * only one side.
 */
double
timeBatch(const bench::PolicyLabLoad &s, unsigned iters,
          obs::Telemetry *tel)
{
    const std::clock_t c0 = std::clock();
    for (unsigned k = 0; k < iters; ++k)
        bench::runPolicyLab(TrafficParams::Pattern::Incast, "fifo", s,
                            tel);
    return static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
}

void
writeJsonResult(obs::JsonWriter &json, const char *label,
                const PolicyResult &r)
{
    json.key(label).beginObject()
        .kv("samples", r.endToEnd.samples)
        .kv("txq_p50_ns", r.txQueue.p50)
        .kv("txq_p99_ns", r.txQueue.p99)
        .kv("policy_wait_p99_ns", r.policyWait.p99)
        .kv("switchq_p50_ns", r.switchQueue.p50)
        .kv("switchq_p99_ns", r.switchQueue.p99)
        .kv("e2e_p50_ns", r.endToEnd.p50)
        .kv("e2e_p99_ns", r.endToEnd.p99)
        .kv("e2e_max_ns", r.endToEnd.max)
        .kv("hol_blocked", r.holBlocked)
        .endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::PolicyLabLoad settings;
    unsigned overheadReps = 25;
    unsigned overheadIters = 128;
    bench::Flags()
        .number("--message-bytes", settings.messageBytes)
        .number("--perm", settings.permMessages)
        .number("--hot", settings.hotMessages)
        .number("--overhead-reps", overheadReps)
        .number("--overhead-iters", overheadIters)
        .parse(argc, argv);

    const char *specs[] = {"fifo", "voq"};

    obs::JsonWriter json(std::cout);
    json.beginObject().kv("schema", "san-latency-lineage-v1")
        .kv("message_bytes", settings.messageBytes)
        .kv("perm_messages", settings.permMessages)
        .kv("hot_messages", settings.hotMessages)
        .key("patterns").beginObject();
    for (const auto pattern : bench::policyLabPatterns) {
        json.key(bench::patternName(pattern)).beginObject();
        std::fprintf(stderr,
                     "%-14s %-8s %8s %9s %9s %9s %9s %9s\n",
                     bench::patternName(pattern), "policy", "samples",
                     "txq p99", "polW p99", "swq p99", "e2e p50",
                     "e2e p99");
        for (std::size_t i = 0; i < 2; ++i) {
            const PolicyResult r = runOne(pattern, specs[i], settings);
            writeJsonResult(json, specs[i], r);
            std::fprintf(
                stderr,
                "%-14s %-8s %8llu %9llu %9llu %9llu %9llu %9llu\n",
                "", r.policy.c_str(),
                static_cast<unsigned long long>(r.endToEnd.samples),
                static_cast<unsigned long long>(r.txQueue.p99),
                static_cast<unsigned long long>(r.policyWait.p99),
                static_cast<unsigned long long>(r.switchQueue.p99),
                static_cast<unsigned long long>(r.endToEnd.p50),
                static_cast<unsigned long long>(r.endToEnd.p99));
        }
        json.endObject();
    }
    json.endObject();

    // Passive overhead: hooks absent vs armed-at-rate-0. Same
    // deterministic workload, best-of-N CPU time each. The rate-0
    // collector never samples, so one serves every timed run.
    obs::Telemetry armed(0);
    double plain = 1e30;
    double hooked = 1e30;
    std::vector<double> ratios;
    for (unsigned rep = 0; rep < overheadReps; ++rep) {
        // Alternate which side runs first: a monotonic frequency
        // drift across the pair would otherwise bias every ratio
        // against whichever side always ran second.
        double p, h;
        if (rep % 2 == 0) {
            p = timeBatch(settings, overheadIters, nullptr);
            h = timeBatch(settings, overheadIters, &armed);
        } else {
            h = timeBatch(settings, overheadIters, &armed);
            p = timeBatch(settings, overheadIters, nullptr);
        }
        plain = std::min(plain, p);
        hooked = std::min(hooked, h);
        if (p > 0)
            ratios.push_back(h / p);
    }
    // Median of the per-rep paired ratios: each pair runs
    // back-to-back, so a CPU-throttle window hits both sides of the
    // ratio, and the median discards the reps where it straddled
    // only one.
    std::sort(ratios.begin(), ratios.end());
    const double overhead =
        ratios.empty() ? 0.0 : ratios[ratios.size() / 2] - 1.0;

    json.kv("telemetry_overhead", overhead).endObject();
    std::fprintf(stderr,
                 "passive telemetry overhead: %.2f%% (off %.4fs, "
                 "armed@0 %.4fs, best of %u x %u iters)\n",
                 overhead * 100.0, plain, hooked, overheadReps,
                 overheadIters);
    return 0;
}
