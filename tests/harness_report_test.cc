/**
 * @file
 * Tests for the figure/table printers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/Report.hh"

namespace {

using namespace san;
using namespace san::apps;
using namespace san::harness;

ModeResults
fakeResults()
{
    ModeResults results;
    for (std::size_t i = 0; i < allModes.size(); ++i) {
        RunStats &r = results[i];
        r.mode = allModes[i];
        r.execTime = sim::ms(100 - 10 * i);
        cpu::TimeBreakdown host;
        host.busy = sim::ms(20);
        host.stall = sim::ms(10);
        host.total = r.execTime;
        r.hosts.push_back(host);
        if (isActive(r.mode)) {
            cpu::TimeBreakdown sp;
            sp.busy = sim::ms(40);
            sp.stall = sim::ms(5);
            sp.total = r.execTime;
            r.switchCpus.push_back(sp);
        }
        r.hostIoBytes = 1000 - 100 * i;
        r.checksum = "42";
    }
    return results;
}

TEST(Report, OverviewNormalizesToNormal)
{
    std::ostringstream oss;
    printOverview(oss, "UnitTest", fakeResults());
    const std::string out = oss.str();
    EXPECT_NE(out.find("== UnitTest =="), std::string::npos);
    EXPECT_NE(out.find("normal"), std::string::npos);
    EXPECT_NE(out.find("active+pref"), std::string::npos);
    // First row normalizes to 1.000 in time and traffic.
    EXPECT_NE(out.find("1.000"), std::string::npos);
}

TEST(Report, BreakdownShowsPaperLabels)
{
    std::ostringstream oss;
    printBreakdown(oss, "UnitTest", fakeResults());
    const std::string out = oss.str();
    for (const char *label : {"n-HP", "n+p-HP", "a-HP", "a+p-HP",
                              "a-SP", "a+p-SP"})
        EXPECT_NE(out.find(label), std::string::npos) << label;
}

TEST(Report, ChecksumsAgreeDetectsMismatch)
{
    ModeResults results = fakeResults();
    EXPECT_TRUE(checksumsAgree(results));
    results[2].checksum = "43";
    EXPECT_FALSE(checksumsAgree(results));
}

TEST(Report, BreakdownFractionsSumToOne)
{
    std::ostringstream oss;
    const auto results = fakeResults();
    printBreakdown(oss, "T", results);
    for (const auto &r : results) {
        for (const auto &bd : r.hosts) {
            const double total = static_cast<double>(bd.total);
            EXPECT_NEAR((bd.busy + bd.stall + bd.idle()) / total, 1.0,
                        1e-9);
        }
    }
}

} // namespace
