/**
 * @file
 * Cross-policy conservation / ordering fuzz for the switch queueing
 * policies (modeled on sim_ladder_fuzz_test): one random multi-port
 * traffic plan per seed is replayed through every policy, and each
 * run must deliver the exact same multiset of (src, dst, messageId,
 * seq) packets with monotone per-flow ordering. The default central
 * policy must additionally reproduce its run fingerprint bit-for-bit
 * across repeat runs, and the VOQ arbiter must keep its bounded
 * grant-wait (starvation-freedom) promise under a sustained hotspot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/Link.hh"
#include "net/Switch.hh"
#include "net/SwitchPolicy.hh"
#include "obs/Fingerprint.hh"
#include "sim/Random.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::net;

constexpr unsigned kPorts = 6;

NodeId
endpointId(unsigned port)
{
    return 100 + port;
}

/** One posted message: all its packets enter the source link at once
 * (the link serializes them in FIFO wire order). */
struct Post {
    sim::Tick at = 0;
    unsigned in = 0;
    unsigned out = 0;
    std::uint64_t mid = 0;
    unsigned pkts = 1;
    std::uint32_t bytes = 0;
};

/** A policy-independent traffic plan derived from one seed. */
struct Plan {
    std::vector<Post> posts;
    /** Per-output endpoint drain delay before the credit goes back:
     * uneven drains are what make backpressure (and the policies'
     * staging paths) actually fire. */
    std::vector<sim::Tick> drain;
};

Plan
makePlan(std::uint64_t seed)
{
    sim::Random rng(seed);
    Plan plan;
    std::uint64_t mid = 1;
    for (unsigned in = 0; in < kPorts; ++in) {
        sim::Tick t = 0;
        const unsigned messages =
            static_cast<unsigned>(rng.between(20, 45));
        for (unsigned m = 0; m < messages; ++m) {
            t += sim::ns(rng.below(900));
            Post p;
            p.at = t;
            p.in = in;
            p.out = static_cast<unsigned>(rng.below(kPorts));
            p.mid = mid++;
            p.pkts = static_cast<unsigned>(1 + rng.below(3));
            p.bytes = static_cast<std::uint32_t>(rng.between(1, 512));
            plan.posts.push_back(p);
        }
    }
    for (unsigned p = 0; p < kPorts; ++p)
        plan.drain.push_back(sim::ns(rng.below(1500)));
    return plan;
}

using PacketKey = std::tuple<NodeId, NodeId, std::uint64_t, std::uint32_t>;
using FlowKey = std::pair<NodeId, NodeId>;
using FlowSeq = std::pair<std::uint64_t, std::uint32_t>; //!< (mid, seq)

struct RunResult {
    std::vector<PacketKey> delivered; //!< sorted multiset
    std::map<FlowKey, std::vector<FlowSeq>> perFlow;
    std::uint64_t fingerprint = 0;
    std::uint64_t maxGrantWait = 0;
};

/** The per-flow delivery order the plan demands: posting order per
 * (src, dst), seqs ascending within each message. */
std::map<FlowKey, std::vector<FlowSeq>>
expectedFlows(const Plan &plan)
{
    // Posts were generated per input in time order, and a flow never
    // spans inputs, so plan order is posting order within every flow.
    std::map<FlowKey, std::vector<FlowSeq>> flows;
    for (const Post &p : plan.posts) {
        auto &f = flows[{endpointId(p.in), endpointId(p.out)}];
        for (unsigned s = 0; s < p.pkts; ++s)
            f.emplace_back(p.mid, s);
    }
    return flows;
}

std::vector<PacketKey>
expectedMultiset(const Plan &plan)
{
    std::vector<PacketKey> all;
    for (const Post &p : plan.posts)
        for (unsigned s = 0; s < p.pkts; ++s)
            all.emplace_back(endpointId(p.in), endpointId(p.out),
                             p.mid, s);
    std::sort(all.begin(), all.end());
    return all;
}

RunResult
runPlan(const Plan &plan, const SwitchPolicyConfig &cfg)
{
    sim::Simulation sim;
    obs::RunFingerprint fp;
    sim.events().setObserver(&fp);

    SwitchParams params;
    params.ports = kPorts;
    params.policy = cfg;
    Switch sw(sim, "fuzz", 1, params);

    RunResult result;
    std::vector<std::unique_ptr<Link>> toSw(kPorts), fromSw(kPorts);
    for (unsigned p = 0; p < kPorts; ++p) {
        toSw[p] = std::make_unique<Link>(
            sim, "to" + std::to_string(p), LinkParams{});
        fromSw[p] = std::make_unique<Link>(
            sim, "from" + std::to_string(p), LinkParams{});
        sw.attachPort(p, *fromSw[p], *toSw[p]);
        sw.setRoute(endpointId(p), p);
        Link *link = fromSw[p].get();
        const sim::Tick drain = plan.drain[p];
        fromSw[p]->setSink([&result, &sim, link,
                            drain](Arrival &&a) {
            result.delivered.emplace_back(a.pkt.src, a.pkt.dst,
                                          a.pkt.messageId, a.pkt.seq);
            result.perFlow[{a.pkt.src, a.pkt.dst}].emplace_back(
                a.pkt.messageId, a.pkt.seq);
            sim.events().after(drain, [link] { link->returnCredit(); });
        });
    }

    for (const Post &p : plan.posts) {
        sim.events().schedule(p.at, [&toSw, p] {
            for (unsigned s = 0; s < p.pkts; ++s) {
                Packet pkt;
                pkt.src = endpointId(p.in);
                pkt.dst = endpointId(p.out);
                pkt.payloadBytes = p.bytes;
                pkt.messageId = p.mid;
                pkt.seq = s;
                pkt.last = s + 1 == p.pkts;
                pkt.messageBytes =
                    static_cast<std::uint64_t>(p.bytes) * p.pkts;
                toSw[p.in]->send(std::move(pkt));
            }
        });
    }

    sim.run();
    std::sort(result.delivered.begin(), result.delivered.end());
    result.fingerprint = fp.value();
    result.maxGrantWait = sw.policy().maxGrantWaitRounds();
    return result;
}

/** Every policy/discipline combination the lab ships. */
std::vector<std::pair<std::string, SwitchPolicyConfig>>
allPolicies()
{
    std::vector<std::pair<std::string, SwitchPolicyConfig>> out;
    SwitchPolicyConfig central;
    out.emplace_back("central", central);

    SwitchPolicyConfig bounded;
    bounded.sharedCapacityCells = 16;
    out.emplace_back("central-bounded", bounded);

    for (ServiceOrder order : {ServiceOrder::Fifo,
                               ServiceOrder::OldestFirst,
                               ServiceOrder::LongestFirst}) {
        SwitchPolicyConfig voq;
        voq.kind = SwitchPolicyKind::Voq;
        voq.order = order;
        out.emplace_back(std::string("voq-") + serviceOrderName(order),
                         voq);
    }
    for (ServiceOrder order :
         {ServiceOrder::Fifo, ServiceOrder::LongestFirst}) {
        SwitchPolicyConfig xp;
        xp.kind = SwitchPolicyKind::Crosspoint;
        xp.order = order;
        out.emplace_back(
            std::string("xpoint-") + serviceOrderName(order), xp);
    }
    return out;
}

constexpr std::uint64_t kSeeds[] = {
    1, 2, 3, 5, 8, 13, 42, 0xc0ffee, 0xdeadbeef, 0x5eed5eed5eed5eedull,
};

TEST(PolicySpec, ParsesEveryKindAndOrder)
{
    const auto central = parsePolicySpec("central");
    ASSERT_TRUE(central.has_value());
    EXPECT_EQ(central->kind, SwitchPolicyKind::CentralOutput);
    EXPECT_EQ(central->sharedCapacityCells, 0u);

    const auto fifo = parsePolicySpec("fifo");
    ASSERT_TRUE(fifo.has_value());
    EXPECT_EQ(fifo->kind, SwitchPolicyKind::CentralOutput);
    EXPECT_EQ(fifo->sharedCapacityCells, 64u);

    const auto voq = parsePolicySpec("voq:oldest");
    ASSERT_TRUE(voq.has_value());
    EXPECT_EQ(voq->kind, SwitchPolicyKind::Voq);
    EXPECT_EQ(voq->order, ServiceOrder::OldestFirst);

    for (const char *spec : {"xpoint:longest", "crosspoint:longest"}) {
        const auto xp = parsePolicySpec(spec);
        ASSERT_TRUE(xp.has_value()) << spec;
        EXPECT_EQ(xp->kind, SwitchPolicyKind::Crosspoint) << spec;
        EXPECT_EQ(xp->order, ServiceOrder::LongestFirst) << spec;
    }
    const auto rr = parsePolicySpec("xpoint:fifo");
    ASSERT_TRUE(rr.has_value());
    EXPECT_EQ(rr->order, ServiceOrder::Fifo);
}

TEST(PolicySpec, RejectsWhatNoPolicyCanHonour)
{
    // Unknown kinds and orders, an empty order, and any order given
    // to the central queue, which serves each output in arrival
    // order only.
    for (const char *spec :
         {"", "bogus", "voq:newest", "central:longest",
          "central:oldest", "central:fifo", "fifo:oldest",
          "fifo:longest", "fifo:fifo", ":oldest", "voq:", "xpoint:",
          "central:"})
        EXPECT_FALSE(parsePolicySpec(spec).has_value()) << spec;
}

TEST(ArbitrationFuzz, EveryPolicyConservesAndOrdersEveryFlow)
{
    for (const std::uint64_t seed : kSeeds) {
        const Plan plan = makePlan(seed);
        const auto wantAll = expectedMultiset(plan);
        const auto wantFlows = expectedFlows(plan);
        for (const auto &[label, cfg] : allPolicies()) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " policy " +
                         label);
            const RunResult got = runPlan(plan, cfg);
            // Conservation: exactly the posted multiset, no loss, no
            // duplication, under every policy.
            ASSERT_EQ(got.delivered, wantAll);
            // Per-flow monotone order: a (src, dst) flow leaves the
            // switch in posting order under every discipline.
            ASSERT_EQ(got.perFlow, wantFlows);
        }
    }
}

TEST(ArbitrationFuzz, DefaultPolicyFingerprintIsReproducible)
{
    for (const std::uint64_t seed : kSeeds) {
        const Plan plan = makePlan(seed);
        const RunResult a = runPlan(plan, SwitchPolicyConfig{});
        const RunResult b = runPlan(plan, SwitchPolicyConfig{});
        ASSERT_NE(a.fingerprint, 0u);
        ASSERT_EQ(a.fingerprint, b.fingerprint)
            << "seed " << seed
            << ": default policy must schedule identical events";
    }
}

TEST(ArbitrationFuzz, VoqGrantWaitIsBoundedUnderHotspot)
{
    // Sustained N-to-1: every input hammers the last port. The iSLIP
    // pointer desynchronization must keep every eligible input's
    // grant wait bounded by a small multiple of the input count, and
    // round-robin service must split the hot link evenly.
    const unsigned hot = kPorts - 1;
    Plan plan;
    std::uint64_t mid = 1;
    for (unsigned in = 0; in < kPorts - 1; ++in)
        for (unsigned m = 0; m < 40; ++m)
            plan.posts.push_back(Post{sim::ns(m * 50), in, hot, mid++,
                                      1, defaultMtu});
    plan.drain.assign(kPorts, 0);

    for (ServiceOrder order : {ServiceOrder::Fifo,
                               ServiceOrder::OldestFirst,
                               ServiceOrder::LongestFirst}) {
        SCOPED_TRACE(serviceOrderName(order));
        SwitchPolicyConfig voq;
        voq.kind = SwitchPolicyKind::Voq;
        voq.order = order;

        sim::Simulation sim;
        SwitchParams params;
        params.ports = kPorts;
        params.policy = voq;
        Switch sw(sim, "hotspot", 1, params);
        std::vector<std::unique_ptr<Link>> toSw(kPorts),
            fromSw(kPorts);
        for (unsigned p = 0; p < kPorts; ++p) {
            toSw[p] = std::make_unique<Link>(
                sim, "to" + std::to_string(p), LinkParams{});
            fromSw[p] = std::make_unique<Link>(
                sim, "from" + std::to_string(p), LinkParams{});
            sw.attachPort(p, *fromSw[p], *toSw[p]);
            sw.setRoute(endpointId(p), p);
            Link *link = fromSw[p].get();
            fromSw[p]->setSink(
                [link](Arrival &&) { link->returnCredit(); });
        }
        for (const Post &p : plan.posts)
            sim.events().schedule(p.at, [&toSw, p] {
                Packet pkt;
                pkt.src = endpointId(p.in);
                pkt.dst = endpointId(p.out);
                pkt.payloadBytes = p.bytes;
                pkt.messageId = p.mid;
                toSw[p.in]->send(std::move(pkt));
            });
        sim.run();

        // Starvation freedom: no input ever waited more than two
        // full pointer revolutions while eligible.
        EXPECT_LE(sw.policy().maxGrantWaitRounds(),
                  2 * (kPorts + 1));
        // Fair shares: identical offered loads earn identical
        // service (within 10%).
        std::uint64_t lo = ~0ull, hi = 0;
        for (unsigned in = 0; in < kPorts - 1; ++in) {
            const std::uint64_t bytes =
                sw.policy().forwardedBytesFrom(in);
            lo = std::min(lo, bytes);
            hi = std::max(hi, bytes);
        }
        EXPECT_GT(lo, 0u);
        EXPECT_LE(static_cast<double>(hi),
                  1.10 * static_cast<double>(lo));
    }
}

} // namespace
