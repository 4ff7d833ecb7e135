/**
 * @file
 * Recovery-invariant tests: benchmarks driven through injected link
 * corruption, credit loss, handler crashes and disk timeouts must
 * still produce the fault-free answer, with the recovery machinery
 * (retransmits, failovers, retries) visibly engaged. Exactly-once
 * delivery is asserted via the host I/O byte counters: retransmitted
 * data must never be double-counted.
 */

#include <gtest/gtest.h>

#include "apps/Grep.hh"
#include "apps/MpegFilter.hh"
#include "fault/FaultPlan.hh"
#include "net/Link.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using fault::FaultKind;
using fault::FaultPlan;

/** @p p with @p plan as its run's fault plan. */
template <typename Params>
Params
under(Params p, FaultPlan &plan)
{
    p.cluster.run.faults = &plan;
    return p;
}

apps::GrepParams
grepParams()
{
    apps::GrepParams p;
    p.fileBytes = 70 * 1024; // 1024 lines
    return p;
}

void
addSpec(FaultPlan &plan, FaultKind kind, double rate)
{
    fault::FaultSpec spec;
    spec.kind = kind;
    spec.rate = rate;
    plan.addSpec(spec);
}

TEST(Recovery, LinkBitErrorsAreRetransmittedExactlyOnce)
{
    const apps::GrepParams p = grepParams();
    const apps::RunStats bare = apps::runGrep(apps::Mode::Active, p);

    FaultPlan plan;
    addSpec(plan, FaultKind::LinkBitError, 5e-6);
    const apps::RunStats r =
        apps::runGrep(apps::Mode::Active, under(p, plan));

    EXPECT_GT(r.faults.injected, 0u);
    EXPECT_GT(r.faults.crcDrops, 0u);
    EXPECT_GT(r.faults.retransmits, 0u);
    EXPECT_EQ(r.faults.flowAborts, 0u);
    // The answer is the fault-free answer...
    EXPECT_EQ(r.checksum, bare.checksum);
    // ...and so is every delivered byte: duplicates are dropped
    // before the adapters' traffic accounting (exactly-once).
    EXPECT_EQ(r.hostIoBytes, bare.hostIoBytes);
}

TEST(Recovery, AllModesSurviveLinkBitErrors)
{
    const apps::GrepParams p = grepParams();
    const apps::RunStats bare = apps::runGrep(apps::Mode::Normal, p);
    for (apps::Mode mode : apps::allModes) {
        FaultPlan plan;
        addSpec(plan, FaultKind::LinkBitError, 2e-6);
        const apps::RunStats r = apps::runGrep(mode, under(p, plan));
        EXPECT_EQ(r.checksum, bare.checksum)
            << "mode " << apps::modeName(mode);
        EXPECT_EQ(r.faults.flowAborts, 0u);
    }
}

TEST(Recovery, ForcedHandlerCrashFailsOver)
{
    const apps::GrepParams p = grepParams();
    const apps::RunStats bare = apps::runGrep(apps::Mode::Active, p);

    FaultPlan plan;
    fault::FaultEvent ev;
    ev.at = 0;
    ev.kind = FaultKind::HandlerCrash;
    ev.target = "1"; // grep's handler id
    plan.addEvent(ev);
    const apps::RunStats r =
        apps::runGrep(apps::Mode::Active, under(p, plan));

    EXPECT_GE(r.faults.failovers, 1u);
    EXPECT_EQ(r.checksum, bare.checksum);
    EXPECT_EQ(r.hostIoBytes, bare.hostIoBytes);
    // Failover costs time but loses no work.
    EXPECT_GE(r.execTime, bare.execTime);
}

TEST(Recovery, CrashUnderCorruptionStillConverges)
{
    const apps::GrepParams p = grepParams();
    const apps::RunStats bare = apps::runGrep(apps::Mode::Active, p);

    FaultPlan plan;
    addSpec(plan, FaultKind::LinkBitError, 2e-6);
    fault::FaultEvent ev;
    ev.at = 0;
    ev.kind = FaultKind::HandlerCrash;
    ev.target = "1";
    plan.addEvent(ev);
    const apps::RunStats r =
        apps::runGrep(apps::Mode::Active, under(p, plan));

    EXPECT_GE(r.faults.failovers, 1u);
    EXPECT_GT(r.faults.retransmits, 0u);
    EXPECT_EQ(r.checksum, bare.checksum);
}

TEST(Recovery, CreditLossResyncsWithoutLoss)
{
    const apps::GrepParams p = grepParams();
    const apps::RunStats bare = apps::runGrep(apps::Mode::Normal, p);

    FaultPlan plan;
    addSpec(plan, FaultKind::CreditLoss, 0.001);
    const apps::RunStats r =
        apps::runGrep(apps::Mode::Normal, under(p, plan));

    EXPECT_GT(r.faults.creditsLost, 0u);
    EXPECT_EQ(r.checksum, bare.checksum);
    EXPECT_EQ(r.hostIoBytes, bare.hostIoBytes);
}

TEST(Recovery, DiskTimeoutsRetryToCompletion)
{
    apps::MpegParams p;
    p.fileBytes = 256 * 1024;
    const apps::RunStats bare =
        apps::runMpegFilter(apps::Mode::Normal, p);

    FaultPlan plan;
    addSpec(plan, FaultKind::DiskTimeout, 0.05);
    const apps::RunStats r =
        apps::runMpegFilter(apps::Mode::Normal, under(p, plan));

    EXPECT_GT(r.faults.ioRetries, 0u);
    EXPECT_EQ(r.faults.ioErrors, 0u); // retries succeed at p=0.05
    EXPECT_EQ(r.checksum, bare.checksum);
    // Timeouts slow the run down but change no data.
    EXPECT_GT(r.execTime, bare.execTime);
}

TEST(Recovery, DiskSpikesOnlyCostTime)
{
    apps::MpegParams p;
    p.fileBytes = 256 * 1024;
    const apps::RunStats bare =
        apps::runMpegFilter(apps::Mode::Normal, p);

    FaultPlan plan;
    addSpec(plan, FaultKind::DiskSpike, 0.02);
    const apps::RunStats r =
        apps::runMpegFilter(apps::Mode::Normal, under(p, plan));

    EXPECT_GT(r.faults.injected, 0u);
    EXPECT_EQ(r.checksum, bare.checksum);
    EXPECT_GT(r.execTime, bare.execTime);
}

#ifndef NDEBUG
TEST(LinkCreditDeathTest, ReturnWithoutChargeAsserts)
{
    // Satellite: a credit return that was never charged must trip the
    // underflow assert instead of silently growing the pool.
    EXPECT_DEATH(
        {
            sim::Simulation sim;
            net::Link link(sim, "wire", net::LinkParams{});
            link.returnCredit();
        },
        "underflow");
}
#endif

} // namespace
