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
#include "apps/MpegFilter.hh"
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
sampledMpegRun(apps::Mode mode)
{
    std::ostringstream csv;
    obs::IntervalSampler sampler(csv, sim::us(100));
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

} // namespace
