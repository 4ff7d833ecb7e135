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
 * and commit the diff alongside the change that caused it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/Cluster.hh"
#include "apps/Grep.hh"
#include "apps/HashJoin.hh"
#include "apps/MpegFilter.hh"
#include "harness/StatsReport.hh"
#include "obs/Json.hh"

#ifndef SAN_GOLDEN_DIR
#error "SAN_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace san;

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

/** Small runs that still exercise hosts, switch CPUs, buffers, ATBs,
 * storage and adapters. HashJoin runs on the scaled host caches, so
 * its host L1D/L2 and switch D$ pin non-zero cold, capacity and
 * conflict counts. */
void
runWorkload(const GoldenCase &c)
{
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
goldenPathFor(const GoldenCase &c)
{
    std::string name = apps::modeName(c.mode);
    for (char &c2 : name)
        if (c2 == '+')
            c2 = '_';
    return std::string(SAN_GOLDEN_DIR) + "/" + c.workload + "_" + name +
           ".json";
}

class GoldenStats : public ::testing::TestWithParam<GoldenCase>
{};

/** The goldens pin the *default* policy's event stream; a forced
 * policy override (the CI policy matrix) legitimately changes every
 * default-configured switch's timing, so these comparisons are
 * meaningless under it. */
bool
policyForced()
{
    return std::getenv("SAN_FORCE_SWITCH_POLICY") != nullptr;
}

TEST_P(GoldenStats, MatchesGoldenFile)
{
    if (policyForced())
        GTEST_SKIP() << "SAN_FORCE_SWITCH_POLICY overrides the "
                        "default policy these goldens pin";
    const GoldenCase &c = GetParam();
    const std::string actual = statsJsonFor(c);
    ASSERT_FALSE(actual.empty());
    const std::string path = goldenPathFor(c);

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
        << "stats diverged from " << path
        << "\nIf this change is intended, regenerate with "
           "SAN_UPDATE_GOLDEN=1 and commit the new golden files.";
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
    if (std::getenv("SAN_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "goldens being regenerated";
    if (policyForced())
        GTEST_SKIP() << "SAN_FORCE_SWITCH_POLICY changes the event "
                        "stream the fingerprint pins";
    std::ifstream in(goldenPathFor(c));
    ASSERT_TRUE(in) << "missing golden file " << goldenPathFor(c);
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
                      GoldenCase{"hashjoin", apps::Mode::Active}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           apps::modeName(info.param.mode);
        for (char &c : name)
            if (c == '+')
                c = 'P';
        return name;
    });

} // namespace
