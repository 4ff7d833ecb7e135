/**
 * @file
 * End-to-end tests of the lb subsystem through the full simulator:
 * conservation (every generated packet is delivered by its assigned
 * backend or counted as a punt), cross-mode decision equality,
 * multi-seed determinism, fault-driven backend churn, and the golden
 * stats snapshot (tests/golden/lb_scale.json).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>

#include "Golden.hh"
#include "fault/FaultPlan.hh"
#include "harness/StatsReport.hh"
#include "lb/LbWorkload.hh"
#include "obs/Json.hh"

namespace {

using namespace san;

lb::LbWorkloadParams
smallParams()
{
    lb::LbWorkloadParams p;
    p.senders = 4;
    p.backends = 8;
    p.churn.flows = 2'000;
    p.churn.dataRounds = 2;
    p.churn.churnOpens = 200;
    p.churn.orphanEvery = 128;
    p.lb.table.capacity = 1 << 14;
    return p;
}

std::uint64_t
sumOf(const std::vector<std::uint64_t> &v)
{
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

TEST(LbConservation, EveryPacketForwardedOrPunted)
{
    for (const apps::Mode mode :
         {apps::Mode::Normal, apps::Mode::Active}) {
        lb::LbWorkloadParams p = smallParams();
        p.recordDeliveries = true;
        const lb::LbRunResult r = lb::runLb(mode, p);
        const apps::LbStats &lb = r.stats.lb;

        EXPECT_TRUE(lb.active);
        // The generator's exact expectations...
        EXPECT_EQ(r.gen.posted, r.gen.opens + r.gen.data + r.gen.closes);
        // ...against the balancer: nothing lost, nothing invented.
        EXPECT_EQ(r.gen.posted, lb.lookups) << apps::modeName(mode);
        EXPECT_EQ(lb.lookups, lb.forwarded + lb.punts);
        EXPECT_EQ(lb.hotHits + lb.tableHits + lb.misses +
                      lb.insertFailures,
                  lb.lookups - lb.inserts)
            << "every non-insert lookup resolves exactly once";
        // Every forwarded packet reached its backend's application.
        EXPECT_EQ(sumOf(r.backendDelivered), lb.forwarded);
        EXPECT_EQ(sumOf(lb.backendPackets), lb.forwarded);
        EXPECT_EQ(r.backendDelivered, lb.backendPackets);
        // Orphans are the only unknown connections in this shape.
        EXPECT_EQ(lb.punts, r.gen.orphans);
        if (mode == apps::Mode::Active) {
            EXPECT_EQ(r.puntArrivals, lb.punts)
                << "punted packets must reach the fallback host";
        }
        // No faults: every flow's packets hit exactly one backend.
        EXPECT_GT(r.deliveredBy.size(), 0u);
        for (const auto &[flow, mask] : r.deliveredBy)
            EXPECT_EQ(std::popcount(mask), 1)
                << "flow " << flow << " split across backends";
        EXPECT_EQ(lb.migrations, 0u);
        EXPECT_EQ(lb.peakFlows, r.gen.peakOpen);
    }
}

TEST(LbModes, SwitchAndHostMakeIdenticalDecisions)
{
    const lb::LbWorkloadParams p = smallParams();
    const lb::LbRunResult active = lb::runLb(apps::Mode::Active, p);
    const lb::LbRunResult normal = lb::runLb(apps::Mode::Normal, p);
    const apps::LbStats &a = active.stats.lb;
    const apps::LbStats &n = normal.stats.lb;
    EXPECT_EQ(a.lookups, n.lookups);
    EXPECT_EQ(a.hotHits, n.hotHits);
    EXPECT_EQ(a.tableHits, n.tableHits);
    EXPECT_EQ(a.misses, n.misses);
    EXPECT_EQ(a.inserts, n.inserts);
    EXPECT_EQ(a.removes, n.removes);
    EXPECT_EQ(a.forwarded, n.forwarded);
    EXPECT_EQ(a.punts, n.punts);
    EXPECT_EQ(a.backendPackets, n.backendPackets);
    // The balancing work ran on different silicon, though: the lb
    // host is essentially idle in Active mode.
    const unsigned lbHost = p.senders + p.backends;
    const auto &ah = active.stats.hosts.at(lbHost);
    const auto &nh = normal.stats.hosts.at(lbHost);
    EXPECT_LT(10 * (ah.busy + ah.stall), nh.busy + nh.stall);
}

TEST(LbDeterminism, TenSeedsReproduceBitIdenticalRuns)
{
    // Across ten churn seeds, a repeated run must reproduce the same
    // fingerprint (the fold over every executed event), and the lb
    // counters — which are NOT folded into the fingerprint — must
    // also match exactly.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        lb::LbWorkloadParams p = smallParams();
        p.churn.flows = 500;
        p.churn.churnOpens = 50;
        p.churn.seed = seed;
        const lb::LbRunResult a = lb::runLb(apps::Mode::Active, p);
        const lb::LbRunResult b = lb::runLb(apps::Mode::Active, p);
        EXPECT_EQ(a.stats.fingerprint, b.stats.fingerprint)
            << "nondeterminism at seed " << seed;
        EXPECT_EQ(a.stats.lb.forwarded, b.stats.lb.forwarded);
        EXPECT_EQ(a.stats.lb.hotHits, b.stats.lb.hotHits);
        EXPECT_EQ(a.stats.lb.backendPackets, b.stats.lb.backendPackets);
        EXPECT_EQ(a.gen.posted, b.gen.posted);
        if (seed > 1) {
            // Different seeds must actually change the tuple stream.
            EXPECT_NE(a.stats.fingerprint, 0u);
        }
    }
}

TEST(LbFaults, BackendDownMigratesOnlyItsFlows)
{
    lb::LbWorkloadParams p = smallParams();
    p.recordDeliveries = true;

    fault::FaultPlan plan;
    fault::FaultEvent down;
    down.at = sim::ms(1); // mid-run: after opens, before the churn
    down.kind = fault::FaultKind::BackendDown;
    down.target = "2";
    plan.addEvent(down);
    p.run.faults = &plan;
    const lb::LbRunResult r = lb::runLb(apps::Mode::Active, p);

    const apps::LbStats &lb = r.stats.lb;
    EXPECT_EQ(lb.backendDownEvents, 1u);
    EXPECT_GT(lb.migrations, 0u) << "backend 2's flows must move";
    // Conservation holds under faults too.
    EXPECT_EQ(r.gen.posted, lb.forwarded + lb.punts);
    EXPECT_EQ(sumOf(r.backendDelivered), lb.forwarded);
    // Only flows assigned to the dead backend may touch two backends.
    std::uint64_t split = 0;
    for (const auto &[flow, mask] : r.deliveredBy) {
        const int n = std::popcount(mask);
        ASSERT_LE(n, 2) << "flow " << flow;
        if (n == 2) {
            ++split;
            EXPECT_TRUE(mask & (1ull << 2))
                << "flow " << flow
                << " migrated without touching backend 2";
        }
    }
    // A migrated flow already delivered its SYN to backend 2, so it
    // shows up on exactly two backends; nothing else may.
    EXPECT_EQ(split, lb.migrations)
        << "migration count disagrees with per-flow delivery masks";
}

TEST(LbFaults, BackendUpRestoresNewFlowAdmission)
{
    lb::LbWorkloadParams p = smallParams();

    fault::FaultPlan plan;
    fault::FaultEvent down;
    down.at = 0;
    down.kind = fault::FaultKind::BackendDown;
    down.target = "0";
    plan.addEvent(down);
    fault::FaultEvent up;
    up.at = sim::ms(2);
    up.kind = fault::FaultKind::BackendUp;
    up.target = "0";
    plan.addEvent(up);
    p.run.faults = &plan;
    const lb::LbRunResult r = lb::runLb(apps::Mode::Active, p);

    EXPECT_EQ(r.stats.lb.backendDownEvents, 1u);
    EXPECT_EQ(r.stats.lb.backendUpEvents, 1u);
    EXPECT_GT(r.stats.lb.backendPackets.at(0), 0u)
        << "revived backend must serve traffic again";
    EXPECT_EQ(r.gen.posted, r.stats.lb.forwarded + r.stats.lb.punts);
}

TEST(LbScale, HotIndexStaysCacheResident)
{
    const lb::LbRunResult r =
        lb::runLb(apps::Mode::Active, smallParams());
    EXPECT_LE(r.stats.lb.hotBytes, 1024u);
    EXPECT_GT(r.stats.lb.hotHits, 0u);
}

TEST(LbGolden, StatsSnapshotMatchesGoldenFile)
{
    std::string captured;
    apps::clusterObserver() = [&captured](apps::Cluster &cluster,
                                          apps::Mode) {
        std::ostringstream oss;
        obs::JsonWriter json(oss);
        harness::dumpClusterStatsJson(json, cluster);
        captured = oss.str();
    };
    lb::runLb(apps::Mode::Active, smallParams());
    apps::clusterObserver() = apps::ClusterObserver{};
    ASSERT_FALSE(captured.empty());
    ASSERT_NE(captured.find("\"lb\""), std::string::npos)
        << "stats JSON must carry the lb section during an lb run";

    test::expectMatchesGolden(captured, "lb_scale.json");
    if (test::updatingGoldens())
        GTEST_SKIP() << "golden file regenerated";
}

} // namespace
