/**
 * @file
 * Domain example: an in-switch L4 load balancer.
 *
 * A pool of clients opens 50k connections through one virtual IP and
 * streams data over them while a tail of connections churns open and
 * closed. The same balancer state machine (src/lb) runs twice: on a
 * host behind the switch (the classic software load balancer) and as
 * an ActiveSwitch handler whose hot index lives in the embedded
 * CPU's 1 KB D$. Halfway through, backend 0 dies — the consistent
 * Maglev table migrates only its flows, every other connection stays
 * stuck to its backend.
 *
 * Build & run:  ./build/examples/lb_demo
 */

#include <cstdio>

#include "fault/FaultPlan.hh"
#include "lb/LbWorkload.hh"

using namespace san;

namespace {

lb::LbRunResult
runOnce(apps::Mode mode)
{
    lb::LbWorkloadParams params;
    params.senders = 4;
    params.backends = 8;
    params.churn.flows = 50'000;
    params.churn.dataRounds = 2;
    params.churn.churnOpens = 2'000;
    params.churn.orphanEvery = 512;

    // Kill backend 0 at 20 simulated ms; the balancer notices on the
    // next packet and lazily migrates its flows.
    fault::FaultPlan plan;
    fault::FaultEvent down;
    down.at = sim::ms(20);
    down.kind = fault::FaultKind::BackendDown;
    down.target = "0";
    plan.addEvent(down);
    params.run.faults = &plan;
    return lb::runLb(mode, params);
}

} // namespace

int
main()
{
    const lb::LbRunResult normal = runOnce(apps::Mode::Normal);
    const lb::LbRunResult active = runOnce(apps::Mode::Active);

    std::printf("L4 load balancing, 50k flows + churn, backend 0 "
                "dies at 20 ms\n");
    std::printf("%-14s %10s %9s %9s %11s %12s\n", "where", "lookups",
                "punts", "migrated", "peak-flows", "lb-host-ms");
    const struct {
        const char *label;
        const lb::LbRunResult &res;
    } rows[] = {{"host lb", normal}, {"switch lb", active}};
    for (const auto &row : rows) {
        const apps::LbStats &lb = row.res.stats.lb;
        const unsigned lbHost = 4 + 8;
        const auto &h = row.res.stats.hosts[lbHost];
        std::printf("%-14s %10llu %9llu %9llu %11llu %12.2f\n",
                    row.label,
                    static_cast<unsigned long long>(lb.lookups),
                    static_cast<unsigned long long>(lb.punts),
                    static_cast<unsigned long long>(lb.migrations),
                    static_cast<unsigned long long>(lb.peakFlows),
                    static_cast<double>(h.busy + h.stall) / 1e9);
    }

    const apps::LbStats &n = normal.stats.lb;
    const apps::LbStats &a = active.stats.lb;
    if (n.forwarded != a.forwarded || n.punts != a.punts ||
        n.migrations != a.migrations) {
        std::fprintf(stderr, "mode decision mismatch!\n");
        return 1;
    }
    std::printf("decisions identical across modes; backend-down "
                "events seen: %llu, flows migrated: %llu\n",
                static_cast<unsigned long long>(a.backendDownEvents),
                static_cast<unsigned long long>(a.migrations));
    return 0;
}
