/**
 * @file
 * Run-state isolation: a run's instruments arrive in its own
 * sim::RunContext, so two simulations in one process, even running at
 * the same time on two threads, keep their own fault plan and
 * telemetry collector and reproduce their solo results bit for bit;
 * and the benches' one run path, bench::Bench::run(), builds those
 * instruments afresh for every run. CI also runs this binary under
 * ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <thread>

#include "BenchCommon.hh"
#include "apps/Grep.hh"
#include "fault/FaultPlan.hh"
#include "obs/Telemetry.hh"

namespace {

using namespace san;

/** Run A: the paper's grep under link bit errors, sampling every
 * packet. */
apps::RunStats
runInstrumented()
{
    fault::FaultPlan plan;
    fault::FaultSpec ber;
    ber.kind = fault::FaultKind::LinkBitError;
    ber.rate = 2e-6;
    plan.addSpec(ber);
    obs::Telemetry tel(1);
    apps::GrepParams p;
    p.cluster.run.faults = &plan;
    p.cluster.run.telemetry = &tel;
    return apps::runGrep(apps::Mode::Active, p);
}

/** Run B: the same call with no instruments. */
apps::RunStats
runBare()
{
    return apps::runGrep(apps::Mode::Active);
}

void
expectSameRun(const apps::RunStats &got, const apps::RunStats &want)
{
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.execTime, want.execTime);
    EXPECT_EQ(got.checksum, want.checksum);

    const apps::FaultStats &f = got.faults, &g = want.faults;
    EXPECT_EQ(f.active, g.active);
    EXPECT_EQ(f.injected, g.injected);
    EXPECT_EQ(f.retransmits, g.retransmits);
    EXPECT_EQ(f.timeouts, g.timeouts);
    EXPECT_EQ(f.crcDrops, g.crcDrops);
    EXPECT_EQ(f.dupDrops, g.dupDrops);
    EXPECT_EQ(f.creditsLost, g.creditsLost);
    EXPECT_EQ(f.flowAborts, g.flowAborts);

    const obs::TelemetryStats &t = got.telemetry, &u = want.telemetry;
    EXPECT_EQ(t.active, u.active);
    EXPECT_EQ(t.recordsSampled, u.recordsSampled);
    EXPECT_EQ(t.recordsDelivered, u.recordsDelivered);
    EXPECT_EQ(t.retransmitsSampled, u.retransmitsSampled);
    EXPECT_EQ(t.packetsObserved, u.packetsObserved);
    EXPECT_EQ(t.bytesObserved, u.bytesObserved);
}

TEST(RunContext, ConcurrentRunsKeepTheirOwnInstruments)
{
    const apps::RunStats soloA = runInstrumented();
    const apps::RunStats soloB = runBare();
    ASSERT_TRUE(soloA.faults.active);
    ASSERT_GT(soloA.faults.injected, 0u);
    ASSERT_TRUE(soloA.telemetry.active);
    ASSERT_GT(soloA.telemetry.recordsSampled, 0u);
    // The faults cost A time and retransmissions, not its answer.
    EXPECT_EQ(soloA.checksum, soloB.checksum);
    EXPECT_NE(soloA.fingerprint, soloB.fingerprint);

    for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE(round);
        apps::RunStats a, b;
        std::thread ta([&a] { a = runInstrumented(); });
        std::thread tb([&b] { b = runBare(); });
        ta.join();
        tb.join();
        expectSameRun(a, soloA);
        expectSameRun(b, soloB);
        EXPECT_FALSE(b.faults.active);
        EXPECT_FALSE(b.telemetry.active);
        EXPECT_EQ(b.telemetry.packetsObserved, 0u);
    }
}

TEST(RunContext, BenchRunsGetInstrumentsOfTheirOwn)
{
    const char *argv[] = {"bench", "--fault-spec", "link-ber:2e-6",
                          "--telemetry"};
    bench::Bench bench(4, const_cast<char **>(argv));
    const auto grep = [](const sim::RunContext &context) {
        apps::GrepParams p;
        p.cluster.run = context;
        return apps::runGrep(apps::Mode::Active, p);
    };
    const apps::RunStats first = bench.run("active", grep).result;
    ASSERT_TRUE(first.faults.active);
    ASSERT_GT(first.faults.injected, 0u);
    ASSERT_GT(first.faults.retransmits, 0u);
    ASSERT_TRUE(first.telemetry.active);
    ASSERT_GT(first.telemetry.recordsSampled, 0u);
    ASSERT_GT(first.telemetry.packetsObserved, 0u);

    // The second run faces the whole fault schedule again and samples
    // into an empty collector: it repeats the first bit for bit.
    const apps::RunStats second = bench.run("active", grep).result;
    expectSameRun(second, first);
}

} // namespace
