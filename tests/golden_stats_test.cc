/**
 * @file
 * Golden-stats regression suite: run small clusters in the paper's
 * configurations, dump the machine-readable stats, and compare
 * byte-for-byte against checked-in golden files.
 *
 * Any change to simulated timing, cache behaviour, traffic or the
 * stats schema shows up here. If the change is intended, regenerate
 * the golden files with
 *
 *     SAN_UPDATE_GOLDEN=1 ctest -R GoldenStats
 *
 * and commit the diff alongside the change that caused it. One case
 * runs grep under faults with telemetry on, pinning the stats JSON's
 * fault and telemetry objects.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "Golden.hh"
#include "apps/Cluster.hh"
#include "apps/Grep.hh"
#include "apps/HashJoin.hh"
#include "apps/MpegFilter.hh"
#include "fault/FaultPlan.hh"
#include "harness/StatsReport.hh"
#include "obs/Json.hh"
#include "obs/Telemetry.hh"

namespace {

using namespace san;
using test::updatingGoldens;

/** One golden case: a workload at reduced size, in one mode. */
struct GoldenCase {
    const char *workload;
    apps::Mode mode;
};

/** gtest's default printer dumps the struct's raw bytes — a string
 * address that ASLR moves on every run, plus padding — and that dump
 * becomes part of each ctest name. Print the fields instead so the
 * names are the same in every build. */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.workload << '/' << apps::modeName(c.mode);
}

/** Add the fault-spec @p spec or, with @p at, the fault event
 * @p spec to @p plan. */
void
addFault(fault::FaultPlan &plan, const std::string &spec, bool at)
{
    std::string error;
    if (at) {
        auto event = fault::FaultPlan::parseAt(spec, &error);
        ASSERT_TRUE(event.has_value()) << error;
        plan.addEvent(*event);
    } else {
        auto parsed = fault::FaultPlan::parseSpec(spec, &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        plan.addSpec(*parsed);
    }
}

/** Small runs that still exercise hosts, switch CPUs, buffers, ATBs,
 * storage and adapters. HashJoin runs on the scaled host caches, so
 * its host L1D/L2 and switch D$ pin non-zero cold, capacity and
 * conflict counts. grep_faulted adds link bit errors, disk latency
 * spikes and a handler crash, and samples every packet. */
void
runWorkload(const GoldenCase &c)
{
    if (std::string(c.workload) == "grep_faulted") {
        fault::FaultPlan plan;
        addFault(plan, "link-ber:2e-6", false);
        addFault(plan, "disk-spike:0.05", false);
        addFault(plan, "0:handler-crash:1", true);
        obs::Telemetry tel(1);
        apps::GrepParams params;
        params.fileBytes = 70 * 2048;
        params.cluster.run.faults = &plan;
        params.cluster.run.telemetry = &tel;
        runGrep(c.mode, params);
        return;
    }
    if (std::string(c.workload) == "mpeg") {
        apps::MpegParams params;
        params.fileBytes = 256 * 1024;
        runMpegFilter(c.mode, params);
    } else if (std::string(c.workload) == "hashjoin") {
        apps::HashJoinParams params;
        params.rBytes = 512 * 1024;
        params.sBytes = 1536 * 1024;
        runHashJoin(c.mode, params);
    } else {
        apps::GrepParams params;
        params.fileBytes = 70 * 2048; // 2048 lines instead of 16384
        runGrep(c.mode, params);
    }
}

std::string
statsJsonFor(const GoldenCase &c)
{
    std::string captured;
    apps::clusterObserver() = [&captured](apps::Cluster &cluster,
                                          apps::Mode) {
        std::ostringstream oss;
        obs::JsonWriter json(oss);
        harness::dumpClusterStatsJson(json, cluster);
        captured = oss.str();
    };
    runWorkload(c);
    apps::clusterObserver() = apps::ClusterObserver{};
    return captured;
}

std::string
goldenFileFor(const GoldenCase &c)
{
    std::string name = apps::modeName(c.mode);
    for (char &c2 : name)
        if (c2 == '+')
            c2 = '_';
    return std::string(c.workload) + "_" + name + ".json";
}

class GoldenStats : public ::testing::TestWithParam<GoldenCase>
{};

TEST_P(GoldenStats, MatchesGoldenFile)
{
    const GoldenCase &c = GetParam();
    const std::string actual = statsJsonFor(c);
    ASSERT_FALSE(actual.empty());
    test::expectMatchesGolden(actual, goldenFileFor(c));
    if (updatingGoldens())
        GTEST_SKIP() << "golden file regenerated";
}

TEST(GoldenFingerprint, FreshRunReproducesCommittedFingerprint)
{
    // The golden files embed each run's 64-bit fingerprint — a fold
    // over every executed (tick, event) plus the end-of-run stats.
    // Comparing a fresh RunStats fingerprint against the committed
    // value directly (not via the full JSON diff) pins the event
    // kernel's execution order to what was recorded before the
    // explicit-heap/slot-arena overhaul: any reordering, dropped or
    // duplicated event changes the fold.
    const GoldenCase c{"mpeg", apps::Mode::Active};
    if (updatingGoldens())
        GTEST_SKIP() << "goldens being regenerated";
    const std::string path = test::goldenPath(goldenFileFor(c));
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::uint64_t committed = 0;
    for (std::string line; std::getline(in, line);) {
        const auto pos = line.find("\"fingerprint\": ");
        if (pos == std::string::npos)
            continue;
        committed = std::strtoull(
            line.c_str() + pos + std::strlen("\"fingerprint\": "),
            nullptr, 10);
        break;
    }
    ASSERT_NE(committed, 0u) << "no fingerprint in the golden file";

    apps::MpegParams params;
    params.fileBytes = 256 * 1024;
    const apps::RunStats fresh = runMpegFilter(c.mode, params);
    EXPECT_EQ(fresh.fingerprint, committed)
        << "the event kernel no longer reproduces the committed "
           "event stream";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GoldenStats,
    ::testing::Values(GoldenCase{"mpeg", apps::Mode::Normal},
                      GoldenCase{"mpeg", apps::Mode::NormalPref},
                      GoldenCase{"mpeg", apps::Mode::Active},
                      GoldenCase{"mpeg", apps::Mode::ActivePref},
                      GoldenCase{"grep", apps::Mode::Normal},
                      GoldenCase{"grep", apps::Mode::Active},
                      GoldenCase{"hashjoin", apps::Mode::Normal},
                      GoldenCase{"hashjoin", apps::Mode::Active},
                      GoldenCase{"grep_faulted", apps::Mode::Active}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           apps::modeName(info.param.mode);
        for (char &c : name)
            if (c == '+')
                c = 'P';
        return name;
    });

} // namespace
