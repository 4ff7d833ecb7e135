/**
 * @file
 * Tests of the time-series metrics layer: registry invariants,
 * interval-boundary behaviour of the sampler, byte-stable output,
 * and the per-handler switch-CPU profiler.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/Cluster.hh"
#include "apps/Grep.hh"
#include "apps/HashJoin.hh"
#include "apps/Md5App.hh"
#include "apps/MpegFilter.hh"
#include "apps/ParallelSort.hh"
#include "apps/Select.hh"
#include "apps/Tar.hh"
#include "obs/Metrics.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;

TEST(MetricsRegistry, RejectsDuplicateGaugeNames)
{
    obs::MetricsRegistry reg;
    reg.add("sw.busy", obs::GaugeKind::Gauge, [] { return 1.0; });
    EXPECT_THROW(
        reg.add("sw.busy", obs::GaugeKind::Rate, [] { return 2.0; }),
        std::invalid_argument);
    // Clearing frees the name again.
    reg.clear();
    EXPECT_NO_THROW(
        reg.add("sw.busy", obs::GaugeKind::Gauge, [] { return 3.0; }));
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

TEST(IntervalSampler, FlushesPartialFinalRow)
{
    // Two events: one at t=0 and one at t=25us with a 10us interval.
    // Expect boundary rows at 0, 10us and 20us plus one final partial
    // row at the 25us end tick.
    sim::Simulation sim;
    std::ostringstream csv;
    obs::IntervalSampler sampler(csv, sim::us(10));
    std::uint64_t counter = 0;
    sampler.registry().add("events", obs::GaugeKind::Rate, [&counter] {
        return static_cast<double>(counter);
    });
    sampler.attach(sim.events());
    sim.events().schedule(0, [&counter] { ++counter; });
    sim.events().schedule(sim::us(25), [&counter] { ++counter; });
    const sim::Tick end = sim.run();
    ASSERT_EQ(end, sim::us(25));
    sampler.finishRun(end);

    EXPECT_EQ(sampler.rowsWritten(), 4u);
    const auto rows = lines(csv.str());
    ASSERT_EQ(rows.size(), 5u); // header + 4 data rows
    EXPECT_EQ(rows[0], "run,time_ps,events");
    EXPECT_EQ(rows[1], "run,0,0");
    EXPECT_EQ(rows[2], "run," + std::to_string(sim::us(10)) + ",1");
    EXPECT_EQ(rows[3], "run," + std::to_string(sim::us(20)) + ",0");
    EXPECT_EQ(rows[4], "run," + std::to_string(sim::us(25)) + ",1");
}

TEST(IntervalSampler, BoundaryEndingRunEmitsNoExtraRow)
{
    // A run whose last event lands exactly on a sample boundary must
    // not get a duplicate partial row at the same tick.
    sim::Simulation sim;
    std::ostringstream csv;
    obs::IntervalSampler sampler(csv, sim::us(10));
    sampler.registry().add("one", obs::GaugeKind::Gauge,
                           [] { return 1.0; });
    sampler.attach(sim.events());
    sim.events().schedule(sim::us(10), [] {});
    sampler.finishRun(sim.run());

    // Rows at 0 and 10us only.
    EXPECT_EQ(sampler.rowsWritten(), 2u);
    const auto rows = lines(csv.str());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[2], "run," + std::to_string(sim::us(10)) + ",1");
}

/** One full MPEG-filter run with a sampler; returns the time series
 * bytes. */
std::string
sampledMpegRun(apps::Mode mode,
               obs::MetricsFormat format = obs::MetricsFormat::Csv)
{
    std::ostringstream csv;
    obs::IntervalSampler sampler(csv, sim::us(100), format);
    apps::MpegParams params;
    params.fileBytes = 128 * 1024;
    params.cluster.run.sampler = &sampler;
    sampler.setRunLabel(apps::modeName(mode));
    runMpegFilter(mode, params);
    return csv.str();
}

TEST(IntervalSampler, TimeSeriesIsDeterministic)
{
    const std::string first = sampledMpegRun(apps::Mode::Active);
    const std::string second = sampledMpegRun(apps::Mode::Active);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "--metrics-csv output must be byte-identical across runs";
    // Sanity: the series has a header plus at least a couple of rows.
    EXPECT_GE(lines(first).size(), 3u);
}

/** The comma-separated cells of one CSV line. */
std::vector<std::string>
cells(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string cell;
    while (std::getline(in, cell, ','))
        out.push_back(cell);
    return out;
}

/**
 * --metrics-csv x.jsonl samples the same rows as the CSV: each JSON
 * line carries its CSV row's run label, time and gauge values, under
 * the header's names and in its order, with every number in the same
 * bytes (the sampler writes both through JsonWriter::writeNumber).
 */
TEST(IntervalSampler, JsonlRowsMatchCsvRows)
{
    const auto csv = lines(sampledMpegRun(apps::Mode::Active));
    const auto jsonl = lines(
        sampledMpegRun(apps::Mode::Active, obs::MetricsFormat::Jsonl));
    ASSERT_GE(csv.size(), 3u);
    ASSERT_EQ(jsonl.size() + 1, csv.size()); // the CSV has a header
    const std::vector<std::string> names = cells(csv[0]);
    ASSERT_GT(names.size(), 2u);
    ASSERT_EQ(names[0], "run");
    bool fractional = false;
    for (std::size_t row = 0; row < jsonl.size(); ++row) {
        const std::vector<std::string> values = cells(csv[row + 1]);
        ASSERT_EQ(values.size(), names.size()) << "row " << row;
        EXPECT_EQ(values[0], "active");
        std::string expect = "{\"run\":\"" + values[0] + "\"";
        for (std::size_t c = 1; c < names.size(); ++c) {
            expect += ",\"" + names[c] + "\":" + values[c];
            fractional = fractional ||
                         values[c].find('.') != std::string::npos;
        }
        EXPECT_EQ(jsonl[row], expect + "}") << "row " << row;
    }
    // Busy and stall shares are fractions: the rule for non-integral
    // values is exercised, not only the integer one.
    EXPECT_TRUE(fractional);
}

TEST(IntervalSampler, SamplingDoesNotPerturbTheRun)
{
    apps::MpegParams params;
    params.fileBytes = 128 * 1024;
    const apps::RunStats bare = runMpegFilter(apps::Mode::Active, params);

    std::ostringstream csv;
    obs::IntervalSampler sampler(csv, sim::us(100));
    params.cluster.run.sampler = &sampler;
    const apps::RunStats sampled =
        runMpegFilter(apps::Mode::Active, params);

    EXPECT_EQ(bare.execTime, sampled.execTime);
    EXPECT_EQ(bare.fingerprint, sampled.fingerprint)
        << "enabling metrics must not change the run fingerprint";
}

TEST(HandlerProfiler, CyclesSumToSwitchCpuBusyCounter)
{
    // Every busy tick a handler charges flows through its
    // HandlerContext, so the profiles must account for the switch
    // CPUs' busy counters exactly.
    sim::Tick profile_busy = 0;
    sim::Tick cpu_busy = 0;
    bool observed = false;
    apps::clusterObserver() = [&](apps::Cluster &cluster, apps::Mode) {
        observed = true;
        for (const auto &[id, p] : cluster.sw().handlerProfiles())
            profile_busy += p.busyTicks;
        for (unsigned i = 0; i < cluster.sw().cpuCount(); ++i)
            cpu_busy += cluster.sw().cpu(i).busyTicks();
    };
    apps::MpegParams params;
    params.fileBytes = 128 * 1024;
    const apps::RunStats stats =
        runMpegFilter(apps::Mode::Active, params);
    apps::clusterObserver() = apps::ClusterObserver{};

    ASSERT_TRUE(observed);
    ASSERT_GT(cpu_busy, 0u);
    EXPECT_EQ(profile_busy, cpu_busy);

    // The RunStats view agrees with the raw profiles.
    ASSERT_FALSE(stats.handlerProfiles.empty());
    sim::Tick stats_busy = 0;
    for (const auto &p : stats.handlerProfiles) {
        stats_busy += p.busyTicks;
        EXPECT_GT(p.invocations, 0u);
        if (p.bytes > 0) {
            EXPECT_GT(p.cyclesPerByte, 0.0);
        }
    }
    EXPECT_EQ(stats_busy, cpu_busy);
}

/** Sum the handler profiles and the switch CPUs of one active run;
 * each busy and each stall tick must be in both. */
void
expectProfilesReconcile(const apps::RunStats &stats)
{
    sim::Tick cpuBusy = 0, cpuStall = 0;
    for (const cpu::TimeBreakdown &b : stats.switchCpus) {
        cpuBusy += b.busy;
        cpuStall += b.stall;
    }
    sim::Tick handlerBusy = 0, handlerStall = 0;
    for (const apps::HandlerCpuProfile &p : stats.handlerProfiles) {
        handlerBusy += p.busyTicks;
        handlerStall += p.stallTicks;
    }
    ASSERT_GT(cpuBusy, 0u);
    EXPECT_EQ(handlerBusy, cpuBusy);
    EXPECT_EQ(handlerStall, cpuStall);
}

/**
 * Every switch-CPU tick a handler spends goes through its
 * HandlerContext, stall included: HashJoin's batched bit-vector
 * probes as much as a single access(). Checked in the active mode of
 * every app that runs on an apps::Cluster.
 */
TEST(HandlerProfiler, BusyAndStallSumToSwitchCpuCounters)
{
    using apps::Mode;
    {
        SCOPED_TRACE("mpeg");
        apps::MpegParams p;
        p.fileBytes = 128 * 1024;
        expectProfilesReconcile(runMpegFilter(Mode::Active, p));
    }
    {
        SCOPED_TRACE("hashjoin");
        apps::HashJoinParams p;
        p.rBytes = 256 * 1024;
        p.sBytes = 1024 * 1024;
        expectProfilesReconcile(runHashJoin(Mode::Active, p));
    }
    {
        SCOPED_TRACE("select");
        apps::SelectParams p;
        p.tableBytes = 512 * 1024;
        expectProfilesReconcile(runSelect(Mode::Active, p));
    }
    {
        SCOPED_TRACE("grep");
        apps::GrepParams p;
        p.fileBytes = 70 * 2048;
        expectProfilesReconcile(runGrep(Mode::Active, p));
    }
    {
        SCOPED_TRACE("tar");
        apps::TarParams p;
        p.totalBytes = 512 * 1024;
        expectProfilesReconcile(runTar(Mode::Active, p));
    }
    {
        SCOPED_TRACE("sort");
        apps::SortParams p;
        p.totalBytes = 512 * 1024;
        expectProfilesReconcile(runParallelSort(Mode::Active, p));
    }
    {
        SCOPED_TRACE("md5");
        apps::Md5Params p;
        p.fileBytes = 64 * 1024;
        p.blockBytes = 8 * 1024;
        p.switchCpus = 4;
        expectProfilesReconcile(runMd5(Mode::Active, p));
    }
}

} // namespace
