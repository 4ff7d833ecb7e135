/**
 * @file
 * Fault-plan unit tests: flag parsing, per-site stream independence,
 * and the determinism contract — the same plan seed reproduces the
 * same fault schedule (and therefore the same run fingerprint), a
 * different seed produces a different schedule that still completes
 * correctly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/Grep.hh"
#include "fault/FaultPlan.hh"
#include "net/Link.hh"
#include "net/Packet.hh"
#include "sim/Simulation.hh"
#include "sim/Types.hh"

namespace {

using namespace san;
using fault::FaultKind;
using fault::FaultPlan;

TEST(FaultSpecParse, AcceptsKindRateAndOptionalSeed)
{
    std::string err;
    auto spec = FaultPlan::parseSpec("link-ber:1e-6", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->kind, FaultKind::LinkBitError);
    EXPECT_DOUBLE_EQ(spec->rate, 1e-6);
    EXPECT_FALSE(spec->seeded);

    spec = FaultPlan::parseSpec("handler-crash:0.5:42", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->kind, FaultKind::HandlerCrash);
    EXPECT_DOUBLE_EQ(spec->rate, 0.5);
    EXPECT_TRUE(spec->seeded);
    EXPECT_EQ(spec->seed, 42u);

    // "none:0" arms the recovery protocol without injecting.
    spec = FaultPlan::parseSpec("none:0", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->kind, FaultKind::None);
    EXPECT_DOUBLE_EQ(spec->rate, 0.0);
}

TEST(FaultSpecParse, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(FaultPlan::parseSpec("", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(FaultPlan::parseSpec("link-ber", &err).has_value());
    EXPECT_FALSE(
        FaultPlan::parseSpec("cosmic-ray:1e-6", &err).has_value());
    EXPECT_FALSE(
        FaultPlan::parseSpec("link-ber:notanumber", &err).has_value());
    EXPECT_FALSE(FaultPlan::parseSpec("link-ber:-1", &err).has_value());
}

TEST(FaultSpecParse, RejectsRatesTheBalancerNeverDraws)
{
    // The balancer acts on one-shot backend events only: a rate for
    // those kinds would be accepted and then never injected.
    for (const char *text : {"backend-down:0.5", "backend-up:0.5:7"}) {
        std::string err;
        EXPECT_FALSE(FaultPlan::parseSpec(text, &err).has_value())
            << text;
        EXPECT_NE(err.find("--fault-at"), std::string::npos) << err;
    }
    std::string err;
    EXPECT_TRUE(
        FaultPlan::parseAt("20000000000:backend-down:1", &err).has_value())
        << err;
}

TEST(FaultAtParse, AcceptsTickKindTarget)
{
    std::string err;
    auto ev = FaultPlan::parseAt("0:handler-crash:1", &err);
    ASSERT_TRUE(ev.has_value()) << err;
    EXPECT_EQ(ev->at, 0u);
    EXPECT_EQ(ev->kind, FaultKind::HandlerCrash);
    EXPECT_EQ(ev->target, "1");

    // Targets may themselves contain ':'-free component names.
    ev = FaultPlan::parseAt("5000000:disk-timeout:tca0", &err);
    ASSERT_TRUE(ev.has_value()) << err;
    EXPECT_EQ(ev->at, 5000000u);
    EXPECT_EQ(ev->kind, FaultKind::DiskTimeout);
    EXPECT_EQ(ev->target, "tca0");
}

TEST(FaultAtParse, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(FaultPlan::parseAt("", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(FaultPlan::parseAt("abc:link-ber:x", &err).has_value());
    EXPECT_FALSE(FaultPlan::parseAt("0:bogus:x", &err).has_value());
    EXPECT_FALSE(FaultPlan::parseAt("0:link-ber", &err).has_value());
}

TEST(FaultSite, StreamsAreIndependentOfOtherSpecs)
{
    // A site's draw sequence depends only on (plan seed, kind, site
    // name) — adding an unrelated spec must not perturb it.
    fault::FaultSpec ber;
    ber.kind = FaultKind::LinkBitError;
    ber.rate = 0.5;
    fault::FaultSpec timeout;
    timeout.kind = FaultKind::DiskTimeout;
    timeout.rate = 0.5;

    FaultPlan lone(123);
    lone.addSpec(ber);
    FaultPlan crowded(123);
    crowded.addSpec(ber);
    crowded.addSpec(timeout);
    // Exercise the unrelated site first so its draws interleave.
    auto *noise = crowded.site(FaultKind::DiskTimeout, "tca0");
    ASSERT_NE(noise, nullptr);
    noise->hits(0, "tca0");

    auto *a = lone.site(FaultKind::LinkBitError, "wire");
    auto *b = crowded.site(FaultKind::LinkBitError, "wire");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(a->hits(0, "wire"), b->hits(0, "wire")) << "draw " << i;
        noise->hits(0, "tca0");
    }
}

TEST(FaultSite, DistinctNamesYieldDistinctStreams)
{
    fault::FaultSpec spec;
    spec.kind = FaultKind::LinkBitError;
    spec.rate = 0.5;
    FaultPlan plan(7);
    plan.addSpec(spec);
    auto *a = plan.site(FaultKind::LinkBitError, "linkA");
    auto *b = plan.site(FaultKind::LinkBitError, "linkB");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    bool differ = false;
    for (int i = 0; i < 256 && !differ; ++i)
        differ = a->hits(0, "linkA") != b->hits(0, "linkB");
    EXPECT_TRUE(differ) << "256 draws at p=0.5 never diverged";
}

TEST(FaultSite, SiteIsNullWithoutMatchingSpec)
{
    FaultPlan plan;
    EXPECT_EQ(plan.site(FaultKind::LinkBitError, "wire"), nullptr);
}

TEST(FaultEvents, ConsumedOncePerTarget)
{
    FaultPlan plan;
    fault::FaultEvent ev;
    ev.at = 100;
    ev.kind = FaultKind::HandlerCrash;
    ev.target = "1";
    plan.addEvent(ev);
    // An event alone gives its kind a site; the site holds a copy.
    auto *site = plan.site(FaultKind::HandlerCrash, "switch0");
    ASSERT_NE(site, nullptr);
    // Not yet due, wrong target, then due exactly once.
    EXPECT_FALSE(site->hits(99, "1"));
    EXPECT_FALSE(site->hits(100, "2"));
    EXPECT_TRUE(site->hits(100, "1"));
    EXPECT_FALSE(site->hits(100, "1"));
    EXPECT_EQ(site->injected(), 1u);
    EXPECT_EQ(plan.injected(), 1u);
    EXPECT_EQ(plan.injectedOf(FaultKind::HandlerCrash), 1u);
}

TEST(FaultEvents, EverySiteOfTheKindHoldsItsOwnCopy)
{
    // Two switches that both run handler 1: the event crashes the
    // first launch on each, whichever asks first, and nothing else.
    FaultPlan plan;
    fault::FaultEvent ev;
    ev.at = 100;
    ev.kind = FaultKind::HandlerCrash;
    ev.target = "1";
    plan.addEvent(ev);
    plan.addEvent(ev); // a second copy: crash the relaunch too
    EXPECT_EQ(plan.site(FaultKind::LinkBitError, "switch0"), nullptr);
    auto *a = plan.site(FaultKind::HandlerCrash, "switch0");
    auto *b = plan.site(FaultKind::HandlerCrash, "switch1");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(plan.site(FaultKind::HandlerCrash, "switch0"), a);
    EXPECT_TRUE(b->hits(100, "1"));
    EXPECT_TRUE(b->hits(100, "1"));
    EXPECT_FALSE(b->hits(100, "1"));
    EXPECT_TRUE(a->hits(200, "1"));
    EXPECT_TRUE(a->hits(200, "1"));
    EXPECT_FALSE(a->hits(200, "1"));
    EXPECT_EQ(plan.injectedOf(FaultKind::HandlerCrash), 4u);
}

TEST(FaultPlan, TalliesSumTheSites)
{
    // injected() and injectedOf() add up the sites' own tallies: no
    // tally lives anywhere else.
    FaultPlan plan(3);
    for (const FaultKind kind :
         {FaultKind::LinkBitError, FaultKind::DiskTimeout}) {
        fault::FaultSpec spec;
        spec.kind = kind;
        spec.rate = 0.5;
        plan.addSpec(spec);
    }
    fault::FaultEvent ev;
    ev.kind = FaultKind::CreditLoss;
    ev.target = "l0";
    plan.addEvent(ev);

    std::vector<fault::FaultSite *> sites;
    for (const char *name : {"l0", "l1", "l2"}) {
        sites.push_back(plan.site(FaultKind::LinkBitError, name));
        sites.push_back(plan.site(FaultKind::CreditLoss, name));
        sites.push_back(plan.site(FaultKind::DiskTimeout, name));
    }
    for (const fault::FaultSite *site : sites)
        ASSERT_NE(site, nullptr);
    for (int i = 0; i < 64; ++i)
        for (fault::FaultSite *site : sites)
            site->hits(i, site->name());

    std::uint64_t total = 0;
    std::uint64_t byKind[fault::faultKindCount] = {};
    for (const fault::FaultSite *site : sites) {
        total += site->injected();
        byKind[static_cast<unsigned>(site->kind())] += site->injected();
    }
    EXPECT_GT(byKind[static_cast<unsigned>(FaultKind::LinkBitError)], 0u);
    EXPECT_EQ(byKind[static_cast<unsigned>(FaultKind::CreditLoss)], 1u);
    EXPECT_EQ(plan.injected(), total);
    for (unsigned k = 0; k < fault::faultKindCount; ++k)
        EXPECT_EQ(plan.injectedOf(static_cast<FaultKind>(k)), byKind[k])
            << fault::faultKindName(static_cast<FaultKind>(k));
}

apps::RunStats
grepUnder(std::uint64_t seed, double ber)
{
    FaultPlan plan(seed);
    fault::FaultSpec spec;
    spec.kind = FaultKind::LinkBitError;
    spec.rate = ber;
    plan.addSpec(spec);
    apps::GrepParams p;
    p.fileBytes = 70 * 1024; // 1024 lines
    p.cluster.run.faults = &plan;
    return apps::runGrep(apps::Mode::Active, p);
}

TEST(FaultDeterminism, SameSeedReproducesFingerprint)
{
    const apps::RunStats a = grepUnder(11, 2e-6);
    const apps::RunStats b = grepUnder(11, 2e-6);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.faults.injected, b.faults.injected);
    EXPECT_EQ(a.faults.retransmits, b.faults.retransmits);
}

TEST(FaultDeterminism, DifferentSeedChangesScheduleNotCorrectness)
{
    // High enough rate that some packet is hit under either seed.
    const apps::RunStats a = grepUnder(11, 5e-6);
    const apps::RunStats b = grepUnder(12, 5e-6);
    EXPECT_GT(a.faults.injected, 0u);
    EXPECT_GT(b.faults.injected, 0u);
    EXPECT_NE(a.fingerprint, b.fingerprint);
    // Both schedules recover to the same answer.
    EXPECT_EQ(a.checksum, b.checksum);
}

TEST(FaultDeterminism, NoneSpecArmsProtocolWithoutInjecting)
{
    apps::GrepParams p;
    p.fileBytes = 70 * 1024;
    const apps::RunStats bare = apps::runGrep(apps::Mode::Active, p);

    FaultPlan plan;
    fault::FaultSpec spec; // kind None, rate 0
    plan.addSpec(spec);
    p.cluster.run.faults = &plan;
    const apps::RunStats armed = apps::runGrep(apps::Mode::Active, p);
    EXPECT_TRUE(armed.faults.active);
    EXPECT_EQ(armed.faults.injected, 0u);
    EXPECT_EQ(armed.faults.retransmits, 0u);
    EXPECT_EQ(armed.faults.flowAborts, 0u);
    // The protocol adds control traffic but must not change results.
    EXPECT_EQ(armed.checksum, bare.checksum);
}

TEST(FaultEvents, BackloggedLinkFiresOneShotAtTransmissionTick)
{
    // Regression test: Link::pump() drains its whole backlog inside a
    // single event (all at the same now()), but each packet's
    // transmission starts when the wire frees up. A one-shot
    // --fault-at TICK bit error must be evaluated against that
    // per-packet transmission tick — evaluated at the enqueue tick it
    // would never fire (TICK is in the future when every check runs)
    // and the fault would silently vanish.
    FaultPlan plan;
    fault::FaultEvent ev;
    ev.at = sim::ns(1056); // 3rd packet: 2 x 528 ns serialization
    ev.kind = FaultKind::LinkBitError;
    ev.target = "l";
    plan.addEvent(ev);

    sim::Simulation s(sim::RunContext{.faults = &plan});
    net::LinkParams lp;
    lp.bandwidthBytesPerSec = 1e9; // (512+16) B packet = 528 ns
    lp.propagation = 0;
    lp.credits = 8;
    net::Link link(s, "l", lp);
    std::vector<net::Arrival> got;
    link.setSink([&](const net::Arrival &a) { got.push_back(a); });
    for (unsigned i = 0; i < 5; ++i) {
        net::Packet p;
        p.src = 0;
        p.dst = 1;
        p.payloadBytes = 512;
        p.messageBytes = 512;
        link.send(std::move(p)); // all enqueued at tick 0
    }
    s.run();

    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(link.packetsCorrupted(), 1u);
    EXPECT_EQ(plan.injected(), 1u);
    for (unsigned i = 0; i < 5; ++i) {
        // Packet i's first bit goes out at i x 528 ns; exactly the one
        // on the wire at ns(1056) is hit.
        EXPECT_EQ(got[i].start, sim::ns(i * 528)) << "packet " << i;
        EXPECT_EQ(got[i].pkt.corrupt, i == 2) << "packet " << i;
    }
}

} // namespace
