/**
 * @file
 * Deterministic incast golden test: a small permutation-with-hotspot
 * run through the bounded-FIFO central queue and through VOQ+iSLIP,
 * each dumped as byte-stable stats JSON plus a metrics-CSV timeline
 * and compared against checked-in goldens. Regenerate after an
 * intended timing change with
 *
 *     SAN_UPDATE_GOLDEN=1 ctest -R IncastGolden
 *
 * Both runs configure their policy explicitly, so the files stay
 * valid under the CI policy matrix's SAN_FORCE_SWITCH_POLICY (the
 * override only replaces default-configured switches).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/Fabric.hh"
#include "net/Traffic.hh"
#include "obs/Json.hh"
#include "obs/Metrics.hh"
#include "sim/Simulation.hh"

#ifndef SAN_GOLDEN_DIR
#error "SAN_GOLDEN_DIR must point at tests/golden"
#endif

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

void
compareGolden(const std::string &actual, const std::string &file)
{
    const std::string path = std::string(SAN_GOLDEN_DIR) + "/" + file;
    if (std::getenv("SAN_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << "; generate it with SAN_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(actual, golden.str())
        << "incast stats diverged from " << path
        << "\nIf intended, regenerate with SAN_UPDATE_GOLDEN=1.";
}

TEST(IncastGolden, BoundedFifoMatchesGolden)
{
    const LabOutput out = runLab("incast_fifo", "fifo");
    compareGolden(out.json, "incast_fifo.json");
    compareGolden(out.csv, "incast_fifo.csv");
    if (std::getenv("SAN_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "goldens regenerated";
}

TEST(IncastGolden, VoqIslipMatchesGolden)
{
    const LabOutput out = runLab("incast_voq", "voq");
    compareGolden(out.json, "incast_voq.json");
    compareGolden(out.csv, "incast_voq.csv");
    if (std::getenv("SAN_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "goldens regenerated";
}

} // namespace
