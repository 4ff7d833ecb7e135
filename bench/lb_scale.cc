/**
 * @file
 * Million-flow L4 load-balancer scale bench (DESIGN.md §12).
 *
 * Drives the flow-churn generator (net::FlowChurnGen) against the lb
 * subsystem twice: in-switch (Mode::Active, the balancer runs as an
 * ActiveSwitch handler on the 500 MHz embedded CPU with its 1 KB D$
 * hot index) and host-only (Mode::Normal, the identical state machine
 * on the lb host's 2 GHz CPU, every packet paying the software demux
 * tax). The default shape opens one million concurrent connections —
 * the acceptance scale — then churns a tail of them closed/reopened
 * while orphan packets exercise the punt path.
 *
 * All gated numbers are SIMULATED and deterministic per build:
 * connection-table lookups per simulated second, punt rate, peak
 * tracked flows, and table/hot-index memory. Prints a JSON report on
 * stdout (tools/perf_baseline, schema san-lb-scale-v1) and a table on
 * stderr. --min-lb-lookups X gates the Active-mode lookup rate.
 *
 * Shares the figure benches' observability flags (BenchCommon.hh):
 * --stats-json includes the lb section, --metrics-csv carries the
 * lb.flows / lb.occupancy / lb.lookups / lb.punts gauges, --telemetry
 * plus --latency-report breaks out the in-handler lookup stage, and
 * --fault-at TICK:backend-down:IDX kills a backend mid-run.
 *
 * Usage: lb_scale [--quick] [--lb-flows N] [--lb-senders N]
 *                 [--lb-backends N] [--lb-cpus N] [--lb-rounds N]
 *                 [--lb-bytes N] [--lb-close-every N]
 *                 [--lb-churn-opens N] [--lb-orphan-every N]
 *                 [--lb-table-capacity N] [--lb-seed N]
 *                 [--min-lb-lookups X] [shared observability flags]
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <optional>
#include <string>

#include "BenchCommon.hh"
#include "lb/LbWorkload.hh"

namespace {

using namespace san;

struct ModeRun {
    lb::LbRunResult res;
    double wallMs = 0.0;
    double cpuMs = 0.0;
};

/** Simulated milliseconds of one run (ticks are picoseconds). */
double
simMs(const apps::RunStats &s)
{
    return static_cast<double>(s.execTime) / 1e9;
}

/** Simulated connection-table lookups per simulated second. */
double
lookupsPerSec(const apps::RunStats &s)
{
    const double secs = static_cast<double>(s.execTime) / 1e12;
    return secs > 0 ? static_cast<double>(s.lb.lookups) / secs : 0.0;
}

/** Busy+stall milliseconds of the lb host's CPU (simulated). */
double
lbHostBusyMs(const apps::RunStats &s, unsigned lb_host)
{
    if (lb_host >= s.hosts.size())
        return 0.0;
    const cpu::TimeBreakdown &h = s.hosts[lb_host];
    return static_cast<double>(h.busy + h.stall) / 1e9;
}

/** One mode with the same per-run setup runFigure() performs. */
ModeRun
runMode(apps::Mode mode, lb::LbWorkloadParams params)
{
    params.run = bench::beginRun(apps::modeName(mode));
    const auto t0 = std::chrono::steady_clock::now();
    const std::clock_t c0 = std::clock();
    ModeRun run;
    run.res = lb::runLb(mode, params);
    run.cpuMs = 1e3 * static_cast<double>(std::clock() - c0) /
                CLOCKS_PER_SEC;
    run.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return run;
}

void
printJsonMode(const char *label, const ModeRun &run, unsigned lb_host,
              bool last)
{
    const apps::LbStats &lb = run.res.stats.lb;
    std::printf(
        "    \"%s\": {\"lookups\": %llu, \"hot_hits\": %llu, "
        "\"table_hits\": %llu, \"misses\": %llu, "
        "\"inserts\": %llu, \"insert_failures\": %llu, "
        "\"removes\": %llu, \"forwarded\": %llu, \"punts\": %llu, "
        "\"migrations\": %llu, \"peak_flows\": %llu, "
        "\"flows_tracked\": %llu, \"occupancy\": %.4f, "
        "\"punt_rate\": %.6f, \"hot_hit_rate\": %.4f, "
        "\"sim_ms\": %.3f, \"lookups_per_sec\": %.0f, "
        "\"lb_host_busy_ms\": %.3f, \"events\": %llu}%s\n",
        label, static_cast<unsigned long long>(lb.lookups),
        static_cast<unsigned long long>(lb.hotHits),
        static_cast<unsigned long long>(lb.tableHits),
        static_cast<unsigned long long>(lb.misses),
        static_cast<unsigned long long>(lb.inserts),
        static_cast<unsigned long long>(lb.insertFailures),
        static_cast<unsigned long long>(lb.removes),
        static_cast<unsigned long long>(lb.forwarded),
        static_cast<unsigned long long>(lb.punts),
        static_cast<unsigned long long>(lb.migrations),
        static_cast<unsigned long long>(lb.peakFlows),
        static_cast<unsigned long long>(lb.flowsTracked), lb.occupancy,
        lb.lookups > 0 ? static_cast<double>(lb.punts) /
                             static_cast<double>(lb.lookups)
                       : 0.0,
        lb.lookups > 0 ? static_cast<double>(lb.hotHits) /
                             static_cast<double>(lb.lookups)
                       : 0.0,
        simMs(run.res.stats), lookupsPerSec(run.res.stats),
        lbHostBusyMs(run.res.stats, lb_host),
        static_cast<unsigned long long>(run.res.stats.eventsExecuted),
        last ? "" : ",");
}

void
printTableRow(const char *label, const ModeRun &run, unsigned lb_host)
{
    const apps::LbStats &lb = run.res.stats.lb;
    const double hot =
        lb.lookups > 0 ? 100.0 * static_cast<double>(lb.hotHits) /
                             static_cast<double>(lb.lookups)
                       : 0.0;
    std::fprintf(stderr,
                 "%-8s %11llu %6.2f%% %9llu %9llu %10llu %9.1f "
                 "%12.0f %11.2f\n",
                 label, static_cast<unsigned long long>(lb.lookups),
                 hot, static_cast<unsigned long long>(lb.punts),
                 static_cast<unsigned long long>(lb.migrations),
                 static_cast<unsigned long long>(lb.peakFlows),
                 simMs(run.res.stats), lookupsPerSec(run.res.stats),
                 lbHostBusyMs(run.res.stats, lb_host));
}

} // namespace

int
main(int argc, char **argv)
{
    lb::LbWorkloadParams params;
    params.churn.dataRounds = 1;
    params.churn.packetBytes = 64;
    params.churn.closeEvery = 4;
    params.churn.seed = 1;
    std::optional<std::uint64_t> flows;
    std::optional<unsigned> churnOpens, orphanEvery;
    double minLbLookups = 0.0;
    bench::Flags own;
    own.number("--lb-flows", flows)
        .number("--lb-senders", params.senders)
        .number("--lb-backends", params.backends)
        .number("--lb-cpus", params.switchCpus)
        .number("--lb-rounds", params.churn.dataRounds)
        .number("--lb-bytes", params.churn.packetBytes)
        .number("--lb-close-every", params.churn.closeEvery)
        .number("--lb-churn-opens", churnOpens)
        .number("--lb-orphan-every", orphanEvery)
        .number("--lb-table-capacity", params.lb.table.capacity)
        .number("--lb-seed", params.churn.seed)
        .number("--min-lb-lookups", minLbLookups);
    const bench::BenchOptions &opts =
        bench::init(argc, argv, false, std::move(own));

    params.churn.flows = 1'000'000;
    params.churn.churnOpens = 65'536;
    params.churn.orphanEvery = 1'024;
    if (opts.quick) {
        params.churn.flows = 20'000;
        params.churn.churnOpens = 2'048;
        params.churn.orphanEvery = 256;
    }
    params.churn.flows = flows.value_or(params.churn.flows);
    params.churn.churnOpens = churnOpens.value_or(params.churn.churnOpens);
    params.churn.orphanEvery =
        orphanEvery.value_or(params.churn.orphanEvery);

    const unsigned lbHost = params.senders + params.backends;

    // Normal first, Active second — the allModes order the shared
    // reports use. The pref modes don't exist for this workload.
    const ModeRun normal = runMode(apps::Mode::Normal, params);
    const ModeRun active = runMode(apps::Mode::Active, params);

    // Conservation self-check: every generated packet either reached
    // a backend through the balancer or was punted.
    for (const ModeRun *run : {&normal, &active}) {
        const apps::LbStats &lb = run->res.stats.lb;
        if (run->res.gen.posted != lb.forwarded + lb.punts) {
            std::fprintf(stderr,
                         "FATAL: packet conservation broken in %s: "
                         "posted %llu != forwarded %llu + punts %llu "
                         "(lookups %llu)\n",
                         apps::modeName(run->res.stats.mode),
                         static_cast<unsigned long long>(
                             run->res.gen.posted),
                         static_cast<unsigned long long>(lb.forwarded),
                         static_cast<unsigned long long>(lb.punts),
                         static_cast<unsigned long long>(lb.lookups));
            return 1;
        }
    }

    std::fprintf(stderr,
                 "%-8s %11s %7s %9s %9s %10s %9s %12s %11s\n", "mode",
                 "lookups", "hot", "punts", "migrated", "peakflows",
                 "sim ms", "lookups/s", "lbhost ms");
    printTableRow("normal", normal, lbHost);
    printTableRow("active", active, lbHost);

    const double activeRate = lookupsPerSec(active.res.stats);
    const double normalRate = lookupsPerSec(normal.res.stats);
    const double normalBusy = lbHostBusyMs(normal.res.stats, lbHost);
    const double activeBusy = lbHostBusyMs(active.res.stats, lbHost);
    const double offload =
        activeBusy > 0 ? normalBusy / activeBusy : 0.0;
    const apps::LbStats &alb = active.res.stats.lb;

    std::printf(
        "{\n  \"schema\": \"san-lb-scale-v1\",\n"
        "  \"flows\": %llu,\n  \"senders\": %u,\n"
        "  \"backends\": %u,\n"
        "  \"switch_cpus\": %u,\n  \"data_rounds\": %u,\n"
        "  \"churn_opens\": %u,\n  \"orphan_every\": %u,\n"
        "  \"table_capacity\": %llu,\n  \"table_bytes\": %llu,\n"
        "  \"hot_bytes\": %llu,\n  \"modes\": {\n",
        static_cast<unsigned long long>(params.churn.flows),
        params.senders, params.backends, params.switchCpus,
        params.churn.dataRounds,
        params.churn.churnOpens, params.churn.orphanEvery,
        static_cast<unsigned long long>(params.lb.table.capacity),
        static_cast<unsigned long long>(alb.tableBytes),
        static_cast<unsigned long long>(alb.hotBytes));
    printJsonMode("normal", normal, lbHost, false);
    printJsonMode("active", active, lbHost, true);
    std::printf("  },\n  \"lb_lookups_per_sec\": %.0f,\n"
                "  \"normal_lookups_per_sec\": %.0f,\n"
                "  \"lb_host_offload\": %.4f\n}\n",
                activeRate, normalRate, offload);
    std::fprintf(stderr,
                 "headline: in-switch balancer sustains %.2fM "
                 "lookups/sec over %llu peak flows (host baseline "
                 "%.2fM), lb-host CPU offload %.1fx\n",
                 activeRate / 1e6,
                 static_cast<unsigned long long>(alb.peakFlows),
                 normalRate / 1e6, offload);

    if (opts.fingerprint) {
        std::printf("fingerprint[normal]: 0x%llx\n",
                    static_cast<unsigned long long>(
                        normal.res.stats.fingerprint));
        std::printf("fingerprint[active]: 0x%llx\n",
                    static_cast<unsigned long long>(
                        active.res.stats.fingerprint));
    }
    if (opts.perf) {
        const ModeRun *runs[] = {&normal, &active};
        for (const ModeRun *run : runs) {
            const double secs = run->cpuMs / 1e3;
            const double eps =
                secs > 0 ? static_cast<double>(
                               run->res.stats.eventsExecuted) /
                               secs
                         : 0.0;
            std::printf("perf[%s]: events=%llu wall_ms=%.3f "
                        "cpu_ms=%.3f events_per_sec=%.0f\n",
                        apps::modeName(run->res.stats.mode),
                        static_cast<unsigned long long>(
                            run->res.stats.eventsExecuted),
                        run->wallMs, run->cpuMs, eps);
        }
    }
    if (!opts.statsJsonPath.empty())
        bench::detail::writeStatsJson(opts.statsJsonPath, "lb_scale");
    if (!opts.latencyReportPath.empty()) {
        harness::ModeResults results;
        results[0] = normal.res.stats;
        results[2] = active.res.stats;
        std::ofstream out(opts.latencyReportPath);
        if (out)
            harness::printLatencyReport(out, "lb_scale", results);
        else
            std::fprintf(stderr,
                         "cannot open latency report file %s\n",
                         opts.latencyReportPath.c_str());
    }
    if (bench::detail::instruments().tracer)
        bench::detail::instruments().tracer->finish();

    if (minLbLookups > 0 && activeRate < minLbLookups) {
        std::fprintf(stderr,
                     "FAIL: active lookup rate %.0f/s below required "
                     "%.0f/s\n",
                     activeRate, minLbLookups);
        return 1;
    }
    return 0;
}
