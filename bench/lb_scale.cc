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
 * stdout (tools/perf_baseline, schema san-lb-scale-v1, whose LIMITS
 * bound the Active-mode lookup rate) and a table on stderr.
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
 *                 [shared observability flags]
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "BenchCommon.hh"
#include "lb/LbWorkload.hh"
#include "obs/Json.hh"

namespace {

using namespace san;

using ModeRun = bench::TimedRun<lb::LbRunResult>;

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

/** @p count as a share of @p lb's lookups (0 without lookups). */
double
perLookup(const apps::LbStats &lb, std::uint64_t count)
{
    return lb.lookups > 0 ? static_cast<double>(count) /
                                static_cast<double>(lb.lookups)
                          : 0.0;
}

void
writeJsonMode(obs::JsonWriter &json, const char *label,
              const ModeRun &run, unsigned lb_host)
{
    const apps::LbStats &lb = run.result.stats.lb;
    json.key(label).beginObject()
        .kv("lookups", lb.lookups)
        .kv("hot_hits", lb.hotHits)
        .kv("table_hits", lb.tableHits)
        .kv("misses", lb.misses)
        .kv("inserts", lb.inserts)
        .kv("insert_failures", lb.insertFailures)
        .kv("removes", lb.removes)
        .kv("forwarded", lb.forwarded)
        .kv("punts", lb.punts)
        .kv("migrations", lb.migrations)
        .kv("peak_flows", lb.peakFlows)
        .kv("flows_tracked", lb.flowsTracked)
        .kv("occupancy", lb.occupancy)
        .kv("punt_rate", perLookup(lb, lb.punts))
        .kv("hot_hit_rate", perLookup(lb, lb.hotHits))
        .kv("sim_ms", simMs(run.result.stats))
        .kv("lookups_per_sec", lookupsPerSec(run.result.stats))
        .kv("lb_host_busy_ms", lbHostBusyMs(run.result.stats, lb_host))
        .kv("events", run.result.stats.eventsExecuted)
        .endObject();
}

void
printTableRow(const char *label, const ModeRun &run, unsigned lb_host)
{
    const apps::LbStats &lb = run.result.stats.lb;
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
                 simMs(run.result.stats), lookupsPerSec(run.result.stats),
                 lbHostBusyMs(run.result.stats, lb_host));
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
        .number("--lb-seed", params.churn.seed);
    bench::Bench bench(argc, argv, false, std::move(own));
    const auto &opts = bench.options();

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
    const auto runMode = [&](apps::Mode mode) {
        return bench.run(apps::modeName(mode),
                         [&](const sim::RunContext &context) {
                             lb::LbWorkloadParams p = params;
                             p.run = context;
                             return lb::runLb(mode, p);
                         });
    };
    const ModeRun normal = runMode(apps::Mode::Normal);
    const ModeRun active = runMode(apps::Mode::Active);

    // Conservation self-check: every generated packet either reached
    // a backend through the balancer or was punted.
    for (const ModeRun *run : {&normal, &active}) {
        const apps::LbStats &lb = run->result.stats.lb;
        if (run->result.gen.posted != lb.forwarded + lb.punts) {
            std::fprintf(stderr,
                         "FATAL: packet conservation broken in %s: "
                         "posted %llu != forwarded %llu + punts %llu "
                         "(lookups %llu)\n",
                         apps::modeName(run->result.stats.mode),
                         static_cast<unsigned long long>(
                             run->result.gen.posted),
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

    const double activeRate = lookupsPerSec(active.result.stats);
    const double normalRate = lookupsPerSec(normal.result.stats);
    const double normalBusy = lbHostBusyMs(normal.result.stats, lbHost);
    const double activeBusy = lbHostBusyMs(active.result.stats, lbHost);
    const double offload =
        activeBusy > 0 ? normalBusy / activeBusy : 0.0;
    const apps::LbStats &alb = active.result.stats.lb;

    obs::JsonWriter json(std::cout);
    json.beginObject().kv("schema", "san-lb-scale-v1")
        .kv("flows", params.churn.flows)
        .kv("senders", params.senders)
        .kv("backends", params.backends)
        .kv("switch_cpus", params.switchCpus)
        .kv("data_rounds", params.churn.dataRounds)
        .kv("churn_opens", params.churn.churnOpens)
        .kv("orphan_every", params.churn.orphanEvery)
        .kv("table_capacity", params.lb.table.capacity)
        .kv("table_bytes", alb.tableBytes)
        .kv("hot_bytes", alb.hotBytes)
        .key("modes").beginObject();
    writeJsonMode(json, "normal", normal, lbHost);
    writeJsonMode(json, "active", active, lbHost);
    json.endObject()
        .kv("lb_lookups_per_sec", activeRate)
        .kv("normal_lookups_per_sec", normalRate)
        .kv("lb_host_offload", offload)
        .endObject();
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
                        normal.result.stats.fingerprint));
        std::printf("fingerprint[active]: 0x%llx\n",
                    static_cast<unsigned long long>(
                        active.result.stats.fingerprint));
    }
    for (const ModeRun *run : {&normal, &active})
        bench.printPerf(std::cout, apps::modeName(run->result.stats.mode),
                        run->result.stats.eventsExecuted, run->time);
    bench.writeStatsJson("lb_scale");
    bench.writeLatencyReport([&](std::ostream &os) {
        harness::ModeResults results;
        results[0] = normal.result.stats;
        results[2] = active.result.stats;
        harness::printLatencyReport(os, "lb_scale", results);
    });
    return 0;
}
