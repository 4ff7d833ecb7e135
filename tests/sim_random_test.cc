/**
 * @file
 * Tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/Random.hh"

namespace {

using namespace san::sim;

TEST(Random, DeterministicForSameSeed)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

class RandomRange : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomRange, BelowStaysInBounds)
{
    Random rng(GetParam());
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST_P(RandomRange, BetweenInclusive)
{
    Random rng(GetParam());
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.between(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= (v == 5);
        saw_hi |= (v == 8);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST_P(RandomRange, RealInUnitInterval)
{
    Random rng(GetParam());
    double sum = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
        sum += r;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRange,
                         ::testing::Values(3, 17, 2026));

} // namespace
