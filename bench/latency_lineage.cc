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
 * --max-telemetry-overhead (and --max-overhead here).
 *
 * Prints a JSON report on stdout (schema san-latency-lineage-v1) and
 * a table on stderr. All latency numbers are simulated integer
 * nanoseconds from log-bucketed tick histograms: byte-stable across
 * repeats and compilers.
 *
 * Usage: latency_lineage [--message-bytes N] [--perm N] [--hot N]
 *                        [--overhead-reps N] [--overhead-iters N]
 *                        [--max-overhead X]
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "BenchCommon.hh"
#include "net/Fabric.hh"
#include "net/Traffic.hh"
#include "obs/Telemetry.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::net;

struct RunSettings {
    std::uint32_t messageBytes = 4096;
    unsigned permMessages = 48;
    unsigned hotMessages = 24;
};

struct StageCut {
    std::uint64_t samples = 0;
    std::uint64_t p50 = 0; //!< ns
    std::uint64_t p99 = 0; //!< ns
    std::uint64_t max = 0; //!< ns
};

struct PolicyResult {
    std::string policy;
    TrafficReport report;
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

/** One traffic run reporting to @p tel (null: telemetry off), whose
 * beginRun() the caller has primed. */
TrafficReport
runTraffic(TrafficParams::Pattern pattern, const std::string &spec,
           const RunSettings &s, obs::Telemetry *tel,
           std::uint64_t *hol_blocked)
{
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
    traffic.messageBytes = s.messageBytes;
    traffic.hotMessages = s.hotMessages;
    // Incast sends only the hot messages; perm_hotspot sends both.
    traffic.messages = pattern == TrafficParams::Pattern::Incast
                           ? s.hotMessages
                           : s.permMessages + s.hotMessages;
    TrafficGen gen(sim, hosts, {}, traffic);
    gen.start();
    sim.run();
    if (hol_blocked != nullptr)
        *hol_blocked = sw.policy().counters().holBlocked;
    const TrafficReport r = gen.report();
    if (r.delivered != r.posted) {
        std::fprintf(stderr,
                     "FATAL: %s lost messages: posted %llu delivered "
                     "%llu\n",
                     spec.c_str(),
                     static_cast<unsigned long long>(r.posted),
                     static_cast<unsigned long long>(r.delivered));
        std::exit(1);
    }
    return r;
}

PolicyResult
runOne(TrafficParams::Pattern pattern, const std::string &spec,
       const RunSettings &s, obs::Telemetry &tel)
{
    tel.beginRun(spec);
    PolicyResult r;
    r.policy = spec;
    r.report = runTraffic(pattern, spec, s, &tel, &r.holBlocked);
    const obs::TelemetryStats &t = tel.finishRun();
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
timeBatch(const RunSettings &s, unsigned iters, obs::Telemetry *tel)
{
    const std::clock_t c0 = std::clock();
    for (unsigned k = 0; k < iters; ++k)
        runTraffic(TrafficParams::Pattern::Incast, "fifo", s, tel,
                   nullptr);
    return static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
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
    const auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    std::printf(
        "      \"%s\": {\"samples\": %llu, "
        "\"txq_p50_ns\": %llu, \"txq_p99_ns\": %llu, "
        "\"policy_wait_p99_ns\": %llu, "
        "\"switchq_p50_ns\": %llu, \"switchq_p99_ns\": %llu, "
        "\"e2e_p50_ns\": %llu, \"e2e_p99_ns\": %llu, "
        "\"e2e_max_ns\": %llu, \"hol_blocked\": %llu}%s\n",
        label, u(r.endToEnd.samples), u(r.txQueue.p50),
        u(r.txQueue.p99), u(r.policyWait.p99), u(r.switchQueue.p50),
        u(r.switchQueue.p99), u(r.endToEnd.p50), u(r.endToEnd.p99),
        u(r.endToEnd.max), u(r.holBlocked), last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    RunSettings settings;
    unsigned overheadReps = 25;
    unsigned overheadIters = 128;
    double maxOverhead = 0.0;
    bench::Flags()
        .number("--message-bytes", settings.messageBytes)
        .number("--perm", settings.permMessages)
        .number("--hot", settings.hotMessages)
        .number("--overhead-reps", overheadReps)
        .number("--overhead-iters", overheadIters)
        .number("--max-overhead", maxOverhead)
        .parse(argc, argv);

    obs::Telemetry tel(1); // sample every packet
    const char *specs[] = {"fifo", "voq"};
    const TrafficParams::Pattern patterns[] = {
        TrafficParams::Pattern::PermutationHotspot,
        TrafficParams::Pattern::Incast,
    };

    std::printf("{\n  \"schema\": \"san-latency-lineage-v1\",\n"
                "  \"message_bytes\": %u,\n  \"perm_messages\": %u,\n"
                "  \"hot_messages\": %u,\n  \"patterns\": {\n",
                settings.messageBytes, settings.permMessages,
                settings.hotMessages);
    for (std::size_t p = 0; p < 2; ++p) {
        const auto pattern = patterns[p];
        std::printf("    \"%s\": {\n", patternName(pattern));
        std::fprintf(stderr,
                     "%-14s %-8s %8s %9s %9s %9s %9s %9s\n",
                     patternName(pattern), "policy", "samples",
                     "txq p99", "polW p99", "swq p99", "e2e p50",
                     "e2e p99");
        for (std::size_t i = 0; i < 2; ++i) {
            const PolicyResult r =
                runOne(pattern, specs[i], settings, tel);
            printJsonResult(specs[i], r, i + 1 == 2);
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
        std::printf("    }%s\n", p + 1 < 2 ? "," : "");
    }

    // Passive overhead: hooks absent vs armed-at-rate-0. Same
    // deterministic workload, best-of-N CPU time each.
    obs::Telemetry armed(0);
    armed.beginRun("overhead");
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

    std::printf("  },\n  \"telemetry_overhead\": %.4f\n}\n", overhead);
    std::fprintf(stderr,
                 "passive telemetry overhead: %.2f%% (off %.4fs, "
                 "armed@0 %.4fs, best of %u x %u iters)\n",
                 overhead * 100.0, plain, hooked, overheadReps,
                 overheadIters);

    if (maxOverhead > 0 && overhead > maxOverhead) {
        std::fprintf(stderr,
                     "FAIL: passive telemetry overhead %.2f%% above "
                     "the %.2f%% budget\n",
                     overhead * 100.0, maxOverhead * 100.0);
        return 1;
    }
    return 0;
}
