/**
 * @file
 * The switch organizations every policy-parametrised test runs: the
 * paper's central output queue (the passthrough default), the
 * bounded central FIFO, VOQ + iSLIP and the crosspoint crossbar, each
 * named by its net::parsePolicySpec() spec. A suite over them reads
 *
 *     class Suite : public ::testing::TestWithParam<std::string> {};
 *     INSTANTIATE_TEST_SUITE_P(Policies, Suite, test::policySpecs(),
 *                              test::policyName);
 *
 * and builds its switches with test::policyOf(GetParam()) as their
 * SwitchParams::policy, so a switch's organization always comes from
 * its own configuration.
 */

#ifndef SAN_TESTS_POLICY_MATRIX_HH
#define SAN_TESTS_POLICY_MATRIX_HH

#include <gtest/gtest.h>

#include <string>

#include "net/SwitchPolicy.hh"

namespace san::test {

/** One spec per policy kind, in the order the suites list them. */
inline auto
policySpecs()
{
    return ::testing::Values(std::string("central"), std::string("fifo"),
                             std::string("voq"), std::string("xpoint"));
}

/** Test-name suffix: the spec itself. */
inline std::string
policyName(const ::testing::TestParamInfo<std::string> &info)
{
    return info.param;
}

/** The configuration @p spec names (a test failure if none). */
inline net::SwitchPolicyConfig
policyOf(const std::string &spec)
{
    const auto cfg = net::parsePolicySpec(spec);
    EXPECT_TRUE(cfg.has_value()) << "bad policy spec " << spec;
    return cfg.value_or(net::SwitchPolicyConfig{});
}

} // namespace san::test

#endif // SAN_TESTS_POLICY_MATRIX_HH
