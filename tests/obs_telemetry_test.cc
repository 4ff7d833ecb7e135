/**
 * @file
 * Telemetry (INT / latency-lineage) tests: histogram percentile
 * exactness, flow-sketch behaviour, sampler determinism, stamp
 * monotonicity on real workloads, telemetry x fault interaction,
 * fingerprint neutrality across seeds, and byte-stability of the
 * latency report (including a golden-file comparison; regenerate
 * with SAN_UPDATE_GOLDEN=1 ctest -R LatencyReport).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/Grep.hh"
#include "apps/MpegFilter.hh"
#include "fault/FaultPlan.hh"
#include "harness/Report.hh"
#include "obs/Telemetry.hh"

#ifndef SAN_GOLDEN_DIR
#error "SAN_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace san;
using fault::FaultKind;
using fault::FaultPlan;
using obs::FlowClass;
using obs::FlowSketch;
using obs::HopStage;
using obs::LatencyHistogram;
using obs::Stage;
using obs::Telemetry;
using obs::TelemetryRecord;

void
addSpec(FaultPlan &plan, FaultKind kind, double rate)
{
    fault::FaultSpec spec;
    spec.kind = kind;
    spec.rate = rate;
    plan.addSpec(spec);
}

apps::MpegParams
smallMpeg(const sim::RunContext &run = {})
{
    apps::MpegParams p;
    p.fileBytes = 256 * 1024;
    p.cluster.run = run;
    return p;
}

apps::GrepParams
smallGrep(const sim::RunContext &run = {})
{
    apps::GrepParams p;
    p.fileBytes = 70 * 1024; // 1024 lines
    p.cluster.run = run;
    return p;
}

bool
policyForced()
{
    return std::getenv("SAN_FORCE_SWITCH_POLICY") != nullptr;
}

/** Recorded hops must read forward in time, each inside the next. */
void
expectMonotonic(const TelemetryRecord &r)
{
    sim::Tick prevEgress = r.bornAt;
    for (std::size_t h = 0; h < r.hopCount; ++h) {
        const obs::TelemetryHop &hop = r.hops[h];
        EXPECT_LE(r.bornAt, hop.ingress) << "uid " << r.uid;
        EXPECT_LE(hop.ingress, hop.admitted) << "uid " << r.uid;
        EXPECT_LE(hop.admitted, hop.egress) << "uid " << r.uid;
        EXPECT_LE(prevEgress, hop.egress) << "uid " << r.uid;
        prevEgress = hop.egress;
    }
    if (r.delivered) {
        EXPECT_LE(r.bornAt, r.deliveredAt) << "uid " << r.uid;
    }
}

// --- LatencyHistogram -------------------------------------------------

TEST(LatencyHistogram, EmptyReturnsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(5000), 0u);
    EXPECT_EQ(h.percentile(9990), 0u);
}

TEST(LatencyHistogram, ZeroGetsItsOwnBucket)
{
    LatencyHistogram h;
    h.add(0);
    h.add(0);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.percentile(5000), 0u);
    EXPECT_EQ(h.percentile(9990), 0u);
}

TEST(LatencyHistogram, PercentileIsBucketUpperEdgeClampedToMax)
{
    LatencyHistogram h;
    // 99 fast samples (bit width 7 -> bucket edge 127) and one slow
    // outlier. Ranks 1..99 resolve to the fast bucket's upper edge;
    // rank 100 (p99.9) lands in the outlier's bucket, clamped to the
    // observed max rather than the edge 2^20-1.
    for (int i = 0; i < 99; ++i)
        h.add(100);
    h.add(1000000);
    EXPECT_EQ(h.samples(), 100u);
    EXPECT_EQ(h.min(), 100u);
    EXPECT_EQ(h.max(), 1000000u);
    EXPECT_EQ(h.percentile(5000), 127u);
    EXPECT_EQ(h.percentile(9900), 127u);
    EXPECT_EQ(h.percentile(9990), 1000000u);
    EXPECT_EQ(h.percentile(10000), 1000000u);
}

TEST(LatencyHistogram, SingleSampleClampsEveryPercentile)
{
    LatencyHistogram h;
    h.add(1000); // upper edge of its bucket is 1023
    EXPECT_EQ(h.percentile(5000), 1000u);
    EXPECT_EQ(h.percentile(9990), 1000u);
}

TEST(LatencyHistogram, BucketOfMatchesBitWidth)
{
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1), 1u);
    EXPECT_EQ(LatencyHistogram::bucketOf(127), 7u);
    EXPECT_EQ(LatencyHistogram::bucketOf(128), 8u);
    EXPECT_EQ(LatencyHistogram::upperEdge(7), 127u);
    EXPECT_EQ(LatencyHistogram::upperEdge(0), 0u);
}

// --- FlowSketch -------------------------------------------------------

TEST(FlowSketch, ExactUnderCapacity)
{
    FlowSketch sk;
    sk.add(1, 2, 100);
    sk.add(3, 4, 300);
    sk.add(1, 2, 50);
    const auto top = sk.top(8);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].key, FlowSketch::keyOf(3, 4));
    EXPECT_EQ(top[0].bytes, 300u);
    EXPECT_EQ(top[0].error, 0u);
    EXPECT_EQ(top[1].key, FlowSketch::keyOf(1, 2));
    EXPECT_EQ(top[1].bytes, 150u);
}

TEST(FlowSketch, TiesBreakOnKeyAscending)
{
    FlowSketch sk;
    sk.add(9, 9, 100);
    sk.add(1, 1, 100);
    const auto top = sk.top(8);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].key, FlowSketch::keyOf(1, 1));
    EXPECT_EQ(top[1].key, FlowSketch::keyOf(9, 9));
}

TEST(FlowSketch, TakeoverInheritsSmallestCounterAsError)
{
    FlowSketch sk;
    // Fill the table; flow 0 is the smallest counter.
    for (std::uint32_t i = 0; i < FlowSketch::kEntries; ++i)
        sk.add(i, i, 10 + i);
    ASSERT_EQ(sk.used(), FlowSketch::kEntries);
    // One more flow evicts the minimum (bytes 10) and inherits it.
    sk.add(1000, 1000, 5);
    EXPECT_EQ(sk.used(), FlowSketch::kEntries);
    bool found = false;
    for (const auto &e : sk.top(FlowSketch::kEntries)) {
        if (e.key == FlowSketch::keyOf(1000, 1000)) {
            found = true;
            EXPECT_EQ(e.bytes, 15u); // 10 inherited + 5 real
            EXPECT_EQ(e.error, 10u);
        } else {
            EXPECT_EQ(e.error, 0u);
        }
    }
    EXPECT_TRUE(found);
}

// --- Sampler ----------------------------------------------------------

TEST(TelemetrySampler, RateZeroArmsButNeverSamples)
{
    Telemetry tel(0);
    tel.beginRun("r");
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(tel.sample(1, 2, FlowClass::Data, 0), nullptr);
    EXPECT_EQ(tel.recordsLive(), 0u);
}

TEST(TelemetrySampler, OneInNIsDeterministic)
{
    Telemetry tel(3);
    tel.beginRun("r");
    int sampled = 0;
    for (int i = 0; i < 9; ++i)
        if (tel.sample(1, 2, FlowClass::Data, i) != nullptr)
            ++sampled;
    EXPECT_EQ(sampled, 3); // packets 0, 3, 6
    EXPECT_EQ(tel.recordsLive(), 3u);
    // beginRun resets the sampler phase: same decisions again.
    tel.beginRun("r2");
    EXPECT_NE(tel.sample(1, 2, FlowClass::Data, 0), nullptr);
    EXPECT_EQ(tel.sample(1, 2, FlowClass::Data, 1), nullptr);
}

// --- Workload lineage -------------------------------------------------

TEST(TelemetryLineage, StampsAreMonotonicOnActiveMpeg)
{
    Telemetry tel(1);
    tel.beginRun("mpeg-active");
    const apps::RunStats r = apps::runMpegFilter(
        apps::Mode::Active, smallMpeg({.telemetry = &tel}));

    ASSERT_TRUE(r.telemetry.active);
    EXPECT_EQ(r.telemetry.sampleRate, 1u);
    EXPECT_GT(r.telemetry.recordsSampled, 0u);
    EXPECT_GT(r.telemetry.recordsDelivered, 0u);
    EXPECT_EQ(r.telemetry.stampsDropped, 0u); // fault-free run
    EXPECT_GT(r.telemetry.packetsObserved, 0u);
    EXPECT_GT(r.telemetry.bytesObserved, 0u);

    std::uint64_t withHops = 0;
    for (const auto &rec : tel.records()) {
        expectMonotonic(*rec);
        if (rec->hopCount > 0)
            ++withHops;
    }
    EXPECT_GT(withHops, 0u);

    // Active traffic crossed a handler: CPU ticks were charged, and
    // every delivered record folded into the end-to-end histogram.
    EXPECT_GT(
        r.telemetry.stageHist(FlowClass::Active, Stage::HandlerCpu)
            .samples(),
        0u);
    std::uint64_t e2e = 0;
    for (std::size_t fc = 0; fc < obs::kFlowClassCount; ++fc)
        e2e += r.telemetry
                   .stageHist(static_cast<FlowClass>(fc),
                              Stage::EndToEnd)
                   .samples();
    EXPECT_EQ(e2e, r.telemetry.recordsDelivered);
}

TEST(TelemetryFault, RetransmitsShowUpInSampledLineage)
{
    const apps::RunStats bare =
        apps::runGrep(apps::Mode::Active, smallGrep());

    FaultPlan plan;
    addSpec(plan, FaultKind::LinkBitError, 5e-6);
    Telemetry tel(1);
    tel.beginRun("grep-faulty");
    const apps::RunStats r = apps::runGrep(
        apps::Mode::Active, smallGrep({.faults = &plan, .telemetry = &tel}));

    // Telemetry changes neither the answer nor the recovery.
    EXPECT_EQ(r.checksum, bare.checksum);
    EXPECT_GT(r.faults.retransmits, 0u);

    // Sampling every packet, the lineage must see the retransmits
    // (the record is shared across a packet's retransmitted copies).
    ASSERT_TRUE(r.telemetry.active);
    EXPECT_GT(r.telemetry.retransmitsSampled, 0u);

    // Recorded stamps stay monotonic even with duplicate copies in
    // flight; inconsistent interleavings are dropped, not recorded.
    for (const auto &rec : tel.records())
        expectMonotonic(*rec);
}

TEST(TelemetryFingerprint, TenSeedsUnchangedByTelemetry)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        std::uint64_t plainFp = 0;
        {
            FaultPlan plan(seed);
            addSpec(plan, FaultKind::LinkBitError, 2e-6);
            plainFp = apps::runGrep(apps::Mode::Active,
                                    smallGrep({.faults = &plan}))
                          .fingerprint;
        }
        {
            FaultPlan plan(seed);
            addSpec(plan, FaultKind::LinkBitError, 2e-6);
            Telemetry tel(1);
            tel.beginRun("seeded");
            const apps::RunStats r = apps::runGrep(
                apps::Mode::Active,
                smallGrep({.faults = &plan, .telemetry = &tel}));
            EXPECT_EQ(r.fingerprint, plainFp) << "seed " << seed;
            EXPECT_GT(r.telemetry.recordsSampled, 0u);
        }
    }
}

// --- Report byte-stability -------------------------------------------

harness::ModeResults
mpegWithTelemetry(Telemetry &tel)
{
    harness::ModeResults results{};
    const apps::MpegParams p = smallMpeg({.telemetry = &tel});
    for (std::size_t i = 0; i < apps::allModes.size(); ++i) {
        tel.beginRun(apps::modeName(apps::allModes[i]));
        results[i] = apps::runMpegFilter(apps::allModes[i], p);
    }
    return results;
}

std::string
latencyReportFor(const harness::ModeResults &results)
{
    std::ostringstream oss;
    harness::printLatencyReport(oss, "mpeg", results);
    return oss.str();
}

TEST(LatencyReport, ByteStableAcrossRepeats)
{
    Telemetry tel(1);
    const std::string a = latencyReportFor(mpegWithTelemetry(tel));
    const std::string b = latencyReportFor(mpegWithTelemetry(tel));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(LatencyReport, SilentWithoutTelemetry)
{
    harness::ModeResults results{};
    EXPECT_TRUE(latencyReportFor(results).empty());
}

TEST(LatencyReport, MatchesGoldenFile)
{
    if (policyForced())
        GTEST_SKIP() << "SAN_FORCE_SWITCH_POLICY overrides the "
                        "default policy this golden pins";
    Telemetry tel(1);
    const std::string actual = latencyReportFor(mpegWithTelemetry(tel));
    ASSERT_FALSE(actual.empty());
    const std::string path =
        std::string(SAN_GOLDEN_DIR) + "/latency_report_mpeg.txt";

    if (std::getenv("SAN_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << "; generate it with SAN_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(actual, golden.str())
        << "latency report diverged from " << path
        << "\nIf this change is intended, regenerate with "
           "SAN_UPDATE_GOLDEN=1 and commit the new golden file.";
}

} // namespace
