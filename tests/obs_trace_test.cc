/**
 * @file
 * Chrome trace export: the exporter's rendering of every event kind,
 * pinned by a golden file (regenerate with
 * SAN_UPDATE_GOLDEN=1 ctest -R TraceExport), and the sharded replay,
 * whose trace must not depend on the worker count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "Golden.hh"
#include "apps/MpegFilter.hh"
#include "obs/Telemetry.hh"
#include "obs/Trace.hh"

namespace {

using namespace san;

TEST(TraceExport, EveryEventKindMatchesGoldenFile)
{
    std::ostringstream os;
    obs::ChromeTracer tr(os);
    tr.beginProcess("mode \"a\\b\"");
    tr.span("host\"0\\.cpu", "compute", 1000, 3500);
    tr.instant("host\"0\\.cpu", "post-read-to", 4000);
    tr.asyncBegin("host0", "io", 7, 5000);
    tr.asyncEnd("host0", "io", 7, 125000);
    tr.counter("metrics", "host0.util", 6000, 0.375);
    tr.flowBegin("link0", "lineage", 3, 7000);
    tr.flowStep("switch0", "lineage", 3, 7500);
    tr.flowEnd("host1.hca", "lineage", 3, 9999999);
    tr.beginProcess("second");
    tr.span("host0", "compute", 0, 1);
    tr.finish();
    test::expectMatchesGolden(os.str(), "trace_kinds.json");
    if (test::updatingGoldens())
        GTEST_SKIP() << "golden file regenerated";
}

/** The trace of a small telemetered MPEG run on @p threads workers. */
std::string
mpegTrace(unsigned threads)
{
    std::ostringstream os;
    obs::ChromeTracer tr(os);
    obs::Telemetry tel(1);
    apps::MpegParams params;
    params.fileBytes = 128 * 1024;
    params.cluster.threads = threads;
    params.cluster.run.tracer = &tr;
    params.cluster.run.telemetry = &tel;
    tr.beginProcess("active+pref");
    runMpegFilter(apps::Mode::ActivePref, params);
    tr.finish();
    return os.str();
}

TEST(TraceExport, ShardedReplayIsIndependentOfWorkerCount)
{
    const std::string two = mpegTrace(2);
    const std::string four = mpegTrace(4);
    EXPECT_EQ(two, four);
    for (const char *ph : {"\"ph\":\"X\"", "\"ph\":\"i\"", "\"ph\":\"b\"",
                           "\"ph\":\"e\"", "\"ph\":\"s\"", "\"ph\":\"t\"",
                           "\"ph\":\"f\""})
        EXPECT_NE(two.find(ph), std::string::npos) << ph << " missing";
}

} // namespace
