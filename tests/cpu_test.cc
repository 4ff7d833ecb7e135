/**
 * @file
 * Tests for the CPU timing/accounting models.
 */

#include <gtest/gtest.h>

#include "cpu/Cpu.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::sim;
using namespace san::cpu;

TEST(Cpu, FrequenciesMatchPaper)
{
    Simulation s;
    HostCpu host(s, "host");
    SwitchCpu sw(s, "sp");
    EXPECT_EQ(host.frequency().hz(), 2'000'000'000u);
    EXPECT_EQ(sw.frequency().hz(), 500'000'000u);
    // Host runs at four times the switch speed.
    EXPECT_EQ(sw.frequency().period(), 4 * host.frequency().period());
}

TEST(Cpu, ComputeChargesBusyTime)
{
    Simulation s;
    HostCpu host(s, "host");
    s.spawn([](HostCpu &cpu) -> Task {
        co_await cpu.compute(2000); // 2000 cycles at 2 GHz = 1 us
    }(host));
    Tick end = s.run();
    EXPECT_EQ(end, us(1));
    EXPECT_EQ(host.busyTicks(), us(1));
    EXPECT_EQ(host.stallTicks(), 0u);
}

TEST(Cpu, TouchChargesStallTime)
{
    Simulation s;
    HostCpu host(s, "host");
    s.spawn([](HostCpu &cpu) -> Task {
        co_await cpu.touch(0x1000, 8, mem::AccessKind::Load);
    }(host));
    Tick end = s.run();
    EXPECT_GT(end, 0u);
    EXPECT_EQ(host.stallTicks(), end);
    EXPECT_EQ(host.busyTicks(), 0u);
}

TEST(Cpu, BreakdownComputesIdleAndUtilization)
{
    Simulation s;
    HostCpu host(s, "host");
    s.spawn([](HostCpu &cpu) -> Task {
        co_await cpu.compute(2000);   // 1 us busy
        co_await Delay{us(3)};        // 3 us idle (waiting on I/O)
    }(host));
    Tick end = s.run();
    EXPECT_EQ(end, us(4));
    auto bd = host.breakdown(end);
    EXPECT_EQ(bd.busy, us(1));
    EXPECT_EQ(bd.idle(), us(3));
    EXPECT_DOUBLE_EQ(bd.utilization(), 0.25);
}

TEST(Cpu, SwitchCpuMissesAreExpensiveRelativeToClock)
{
    Simulation s;
    SwitchCpu sw(s, "sp");
    s.spawn([](SwitchCpu &cpu) -> Task {
        co_await cpu.touch(0x100, 1, mem::AccessKind::Load);
    }(sw));
    s.run();
    // A cold D$ miss goes straight to RDRAM: >= 122 ns page miss,
    // i.e. dozens of 2 ns switch cycles.
    EXPECT_GE(sw.stallTicks(), ns(122));
}

TEST(Cpu, BusyForChargesFixedOsCosts)
{
    Simulation s;
    HostCpu host(s, "host");
    s.spawn([](HostCpu &cpu) -> Task {
        co_await cpu.busyFor(us(30)); // paper's per-request OS cost
    }(host));
    Tick end = s.run();
    EXPECT_EQ(end, us(30));
    EXPECT_EQ(host.busyTicks(), us(30));
}

} // namespace
