/**
 * @file
 * Deterministic incast golden test: a small permutation-with-hotspot
 * run through each buffered policy and service order the lab offers
 * (the bounded-FIFO central queue, VOQ+iSLIP in round-robin and
 * oldest-first order, the crosspoint crossbar in round-robin and
 * longest-first order), each dumped as byte-stable stats JSON plus a
 * metrics-CSV timeline and compared against checked-in goldens.
 * Regenerate after an intended timing change with
 *
 *     SAN_UPDATE_GOLDEN=1 ctest -R IncastGolden
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "Golden.hh"
#include "net/Fabric.hh"
#include "net/Traffic.hh"
#include "obs/Json.hh"
#include "obs/Metrics.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::net;

struct LabOutput {
    std::string json;
    std::string csv;
};

/** 8 hosts on one 8-port switch, small perm-hotspot load. */
LabOutput
runLab(const std::string &label, const std::string &spec)
{
    const auto cfg = parsePolicySpec(spec);
    if (!cfg.has_value())
        ADD_FAILURE() << "bad policy spec " << spec;

    sim::Simulation sim;
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
    traffic.pattern = TrafficParams::Pattern::PermutationHotspot;
    traffic.messageBytes = 2048;
    traffic.messages = 18; // 12 ring + 6 hot
    traffic.hotMessages = 6;
    TrafficGen gen(sim, hosts, {}, traffic);

    std::ostringstream csv;
    obs::IntervalSampler sampler(csv, sim::us(10));
    sampler.setRunLabel(label);
    sw.registerMetrics(sampler.registry());
    sampler.attach(sim.events());

    gen.start();
    const sim::Tick end = sim.run();
    sampler.finishRun(end);
    const TrafficReport r = gen.report();

    std::ostringstream oss;
    obs::JsonWriter json(oss);
    json.beginObject();
    json.kv("policy", sw.policy().name());
    json.key("traffic").beginObject();
    json.kv("pattern", "perm_hotspot");
    json.kv("messageBytes", traffic.messageBytes);
    json.kv("permMessages", traffic.messages - traffic.hotMessages);
    json.kv("hotMessages", traffic.hotMessages);
    json.endObject();
    // The measured class is the ring ("perm") traffic.
    json.key("report").beginObject();
    json.kv("deliveredBytes", r.deliveredBytes);
    json.kv("deliveredMessages", r.delivered);
    json.kv("permBytes", r.measuredBytes);
    json.kv("hotBytes", r.deliveredBytes - r.measuredBytes);
    json.kv("lastDeliveryAt", static_cast<std::uint64_t>(r.lastDeliveryAt));
    json.kv("permDoneAt", static_cast<std::uint64_t>(r.measuredDoneAt));
    json.kv("bytesAtPermDone", r.bytesAtMeasuredDone);
    json.kv("aggregateGBps", r.aggregateGBps);
    json.kv("permGoodputGBps", r.goodputGBps);
    json.kv("permLatencyMeanNs", r.latencyMeanNs);
    json.kv("permLatencyMaxNs", r.latencyMaxNs);
    json.kv("jainFairness", r.jainFairness);
    json.endObject();
    const auto &pc = sw.policy().counters();
    json.key("policyCounters").beginObject();
    json.kv("admitted", pc.admitted);
    json.kv("forwarded", pc.forwarded);
    json.kv("holBlocked", pc.holBlocked);
    json.kv("grants", pc.grants);
    json.kv("arbRounds", pc.arbRounds);
    json.kv("peakOccupancy", pc.peakOccupancy);
    json.kv("maxGrantWaitRounds", sw.policy().maxGrantWaitRounds());
    json.endObject();
    json.endObject();

    // Sanity independent of the golden: every posted byte arrived.
    EXPECT_EQ(r.delivered, 7u * (12 + 6));
    EXPECT_EQ(r.deliveredBytes, 7ull * (12 + 6) * 2048);

    return LabOutput{oss.str(), csv.str()};
}

TEST(IncastGolden, BoundedFifoMatchesGolden)
{
    const LabOutput out = runLab("incast_fifo", "fifo");
    test::expectMatchesGolden(out.json, "incast_fifo.json");
    test::expectMatchesGolden(out.csv, "incast_fifo.csv");
    if (test::updatingGoldens())
        GTEST_SKIP() << "goldens regenerated";
}

TEST(IncastGolden, VoqIslipMatchesGolden)
{
    const LabOutput out = runLab("incast_voq", "voq");
    test::expectMatchesGolden(out.json, "incast_voq.json");
    test::expectMatchesGolden(out.csv, "incast_voq.csv");
    if (test::updatingGoldens())
        GTEST_SKIP() << "goldens regenerated";
}

TEST(IncastGolden, VoqOldestFirstMatchesGolden)
{
    const LabOutput out = runLab("incast_voq_oldest", "voq:oldest");
    test::expectMatchesGolden(out.json, "incast_voq_oldest.json");
    test::expectMatchesGolden(out.csv, "incast_voq_oldest.csv");
    if (test::updatingGoldens())
        GTEST_SKIP() << "goldens regenerated";
}

TEST(IncastGolden, CrosspointMatchesGolden)
{
    const LabOutput out = runLab("incast_xpoint", "xpoint");
    test::expectMatchesGolden(out.json, "incast_xpoint.json");
    test::expectMatchesGolden(out.csv, "incast_xpoint.csv");
    if (test::updatingGoldens())
        GTEST_SKIP() << "goldens regenerated";
}

TEST(IncastGolden, CrosspointLongestFirstMatchesGolden)
{
    const LabOutput out = runLab("incast_xpoint_longest", "xpoint:longest");
    test::expectMatchesGolden(out.json, "incast_xpoint_longest.json");
    test::expectMatchesGolden(out.csv, "incast_xpoint_longest.csv");
    if (test::updatingGoldens())
        GTEST_SKIP() << "goldens regenerated";
}

} // namespace
