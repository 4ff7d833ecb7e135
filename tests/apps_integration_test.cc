/**
 * @file
 * End-to-end application tests: every benchmark runs in all four
 * configurations on reduced problem sizes, and the paper's headline
 * invariants are asserted (semantic agreement across modes, traffic
 * reductions, ordering of execution times).
 */

#include <gtest/gtest.h>

#include "apps/Cluster.hh"
#include "apps/Grep.hh"
#include "apps/HashJoin.hh"
#include "apps/Md5App.hh"
#include "apps/MpegFilter.hh"
#include "apps/ParallelSort.hh"
#include "apps/Reduction.hh"
#include "apps/Select.hh"
#include "apps/Tar.hh"

namespace {

using namespace san::apps;

template <typename RunFn>
std::array<RunStats, 4>
runAll(RunFn run)
{
    std::array<RunStats, 4> out;
    for (std::size_t i = 0; i < allModes.size(); ++i)
        out[i] = run(allModes[i]);
    return out;
}

/** Disk seeks and bytes read by storage node 0 in one run. */
struct DiskTally {
    std::uint64_t seeks = 0;
    std::uint64_t bytes = 0;
};

template <typename RunFn>
std::array<DiskTally, 4>
diskTallies(RunFn run)
{
    std::array<DiskTally, 4> out;
    DiskTally *slot = nullptr;
    clusterObserver() = [&slot](Cluster &c, Mode) {
        *slot = {c.storage().disks().seeks(),
                 c.storage().disks().bytesRead()};
    };
    for (std::size_t i = 0; i < allModes.size(); ++i) {
        slot = &out[i];
        run(allModes[i]);
    }
    clusterObserver() = nullptr;
    return out;
}

void
expectSameDiskWork(const char *app, const std::array<DiskTally, 4> &t)
{
    EXPECT_GT(t[0].bytes, 0u) << app;
    for (std::size_t i = 1; i < t.size(); ++i) {
        EXPECT_EQ(t[i].seeks, t[0].seeks)
            << app << ", " << modeName(allModes[i]);
        EXPECT_EQ(t[i].bytes, t[0].bytes)
            << app << ", " << modeName(allModes[i]);
    }
}

TEST(StreamApps, EveryModeReadsTheSameDisk)
{
    // Where the per-record work runs changes nothing about what the
    // storage node reads: every mode streams the same sectors, so
    // the disks seek as often and deliver as many bytes.
    MpegParams mpeg;
    mpeg.fileBytes = 256 * 1024;
    expectSameDiskWork("mpeg", diskTallies([&](Mode m) {
                           return runMpegFilter(m, mpeg);
                       }));
    SelectParams select;
    select.tableBytes = 512 * 1024;
    expectSameDiskWork("select", diskTallies([&](Mode m) {
                           return runSelect(m, select);
                       }));
    GrepParams grep;
    grep.fileBytes = 70 * 2048;
    expectSameDiskWork("grep", diskTallies([&](Mode m) {
                           return runGrep(m, grep);
                       }));
    HashJoinParams join;
    join.rBytes = 512 * 1024;
    join.sBytes = 1536 * 1024;
    expectSameDiskWork("hashjoin", diskTallies([&](Mode m) {
                           return runHashJoin(m, join);
                       }));
    Md5Params md5;
    md5.fileBytes = 64 * 1024;
    md5.blockBytes = 8 * 1024;
    expectSameDiskWork("md5", diskTallies([&](Mode m) {
                           return runMd5(m, md5);
                       }));
}

TEST(SelectApp, ModesAgreeAndActiveFiltersTraffic)
{
    SelectParams p;
    p.tableBytes = 2 * 1024 * 1024;
    auto r = runAll([&](Mode m) { return runSelect(m, p); });
    for (const auto &stats : r)
        EXPECT_EQ(stats.checksum, r[0].checksum);
    // Active host I/O traffic ~ selectivity of normal.
    const double ratio = static_cast<double>(r[2].hostIoBytes) /
                         static_cast<double>(r[0].hostIoBytes);
    EXPECT_NEAR(ratio, p.selectivity, 0.05);
    // Normal (sync) is the slowest configuration.
    EXPECT_GT(r[0].execTime, r[1].execTime);
    EXPECT_GT(r[0].execTime, r[3].execTime);
    // Active host utilization far below normal.
    EXPECT_LT(r[2].hostUtilization(), r[0].hostUtilization());
}

TEST(GrepApp, OnlyMatchedLinesReachHost)
{
    GrepParams p;
    p.fileBytes = 70 * 2048; // 2048 lines
    auto r = runAll([&](Mode m) { return runGrep(m, p); });
    for (const auto &stats : r)
        EXPECT_EQ(stats.checksum, r[0].checksum);
    EXPECT_EQ(r[0].checksum,
              std::to_string(p.matchingLines) + ":" +
                  std::to_string(p.matchingLines * p.lineBytes));
    // Host receives (almost) nothing in active mode.
    EXPECT_LT(r[3].hostIoBytes, r[0].hostIoBytes / 20);
}

TEST(HashJoinApp, SurvivorsMatchAndStallsDrop)
{
    HashJoinParams p;
    p.rBytes = 1 * 1024 * 1024;
    p.sBytes = 4 * 1024 * 1024;
    auto r = runAll([&](Mode m) { return runHashJoin(m, p); });
    for (const auto &stats : r)
        EXPECT_EQ(stats.checksum, r[0].checksum);
    // The bit-vector filter reduces host traffic.
    EXPECT_LT(r[2].hostIoBytes, r[0].hostIoBytes / 2);
    // Host cache-stall share shrinks in the active cases.
    const auto &np = r[1].hosts[0];
    const auto &ap = r[3].hosts[0];
    const double np_stall =
        static_cast<double>(np.stall) / static_cast<double>(np.total);
    const double ap_stall =
        static_cast<double>(ap.stall) / static_cast<double>(ap.total);
    EXPECT_LT(ap_stall, np_stall);
}

TEST(MpegApp, TrafficDropsToIFrameShare)
{
    MpegParams p;
    p.fileBytes = 512 * 1024;
    auto r = runAll([&](Mode m) { return runMpegFilter(m, p); });
    for (const auto &stats : r)
        EXPECT_EQ(stats.checksum, r[0].checksum);
    const double ratio = static_cast<double>(r[2].hostIoBytes) /
                         static_cast<double>(r[0].hostIoBytes);
    EXPECT_NEAR(ratio, 0.365, 0.03);
    // Active cases beat the corresponding normal cases.
    EXPECT_LT(r[2].execTime, r[0].execTime);
    EXPECT_LT(r[3].execTime, r[1].execTime);
    // Both CPUs busy: the switch runs a balanced pipeline.
    EXPECT_GT(r[3].switchCpus.at(0).utilization(), 0.3);
}

TEST(TarApp, HostBypassedEntirely)
{
    TarParams p;
    p.totalBytes = 512 * 1024;
    auto r = runAll([&](Mode m) { return runTar(m, p); });
    for (const auto &stats : r)
        EXPECT_EQ(stats.checksum, r[0].checksum);
    // Archive = files + one 512 B header per file.
    const unsigned files =
        static_cast<unsigned>(p.totalBytes / p.fileBytes);
    EXPECT_EQ(r[0].checksum,
              std::to_string(p.totalBytes + files * p.headerBytes));
    // Active host I/O: headers only (vs full data in normal).
    EXPECT_LT(r[2].hostIoBytes, r[0].hostIoBytes / 50);
    EXPECT_LT(r[2].hostUtilization(), 0.05);
}

TEST(SortApp, EveryRecordReachesItsOwner)
{
    SortParams p;
    p.totalBytes = 2 * 1024 * 1024;
    auto r = runAll([&](Mode m) { return runParallelSort(m, p); });
    for (const auto &stats : r)
        EXPECT_EQ(stats.checksum, r[0].checksum);
    // Paper: per-node traffic ratio p/(3p-2) = 0.4 at p = 4.
    const double ratio = static_cast<double>(r[2].hostIoBytes) /
                         static_cast<double>(r[0].hostIoBytes);
    EXPECT_NEAR(ratio, 0.4, 0.03);
}

TEST(Md5App, OneCpuLosesFourCpusWin)
{
    Md5Params p;
    p.fileBytes = 64 * 1024;
    p.blockBytes = 8 * 1024;
    RunStats normal = runMd5(Mode::Normal, p);
    p.switchCpus = 1;
    RunStats one = runMd5(Mode::Active, p);
    p.switchCpus = 4;
    RunStats four = runMd5(Mode::Active, p);
    EXPECT_GT(one.execTime, normal.execTime);  // 1 CPU: slowdown
    EXPECT_LT(four.execTime, normal.execTime); // 4 CPUs: speedup
    // Different algorithms -> different digests, but each mode is
    // self-consistent.
    RunStats four_again = runMd5(Mode::Active, p);
    EXPECT_EQ(four.checksum, four_again.checksum);
}

class ReductionModes
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{};

TEST_P(ReductionModes, MatchesSequentialReference)
{
    auto [nodes, active] = GetParam();
    ReductionParams p;
    p.nodes = nodes;
    for (auto kind : {ReduceKind::ToOne, ReduceKind::Distributed,
                      ReduceKind::ToAll}) {
        ReductionRun run = runReduction(active, kind, p);
        EXPECT_TRUE(run.correct)
            << "nodes=" << nodes << " active=" << active;
        EXPECT_GT(run.latency, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReductionModes,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u, 64u),
                       ::testing::Bool()));

TEST(ReductionScaling, ActiveAdvantageGrowsWithNodes)
{
    ReductionParams small, large;
    small.nodes = 4;
    large.nodes = 64;
    const double speedup_small =
        static_cast<double>(
            runReduction(false, ReduceKind::ToOne, small).latency) /
        runReduction(true, ReduceKind::ToOne, small).latency;
    const double speedup_large =
        static_cast<double>(
            runReduction(false, ReduceKind::ToOne, large).latency) /
        runReduction(true, ReduceKind::ToOne, large).latency;
    EXPECT_GT(speedup_large, speedup_small);
    EXPECT_GT(speedup_large, 2.0);
}

} // namespace
