/**
 * @file
 * Stateless deterministic hashing shared by host-side and switch-side
 * code so both compute identical per-record decisions (bit-vector
 * probes, match outcomes, destination nodes) without materializing
 * the data.
 */

#ifndef SAN_APPS_DET_HASH_HH
#define SAN_APPS_DET_HASH_HH

#include <cstdint>

#include "sim/Random.hh"

namespace san::apps {

/** splitmix64-style avalanche of (seed, index). */
constexpr std::uint64_t
detHash(std::uint64_t seed, std::uint64_t index)
{
    return sim::mix64(seed + index * sim::goldenGamma);
}

/** Deterministic Bernoulli trial with probability @p p. */
constexpr bool
detChance(std::uint64_t seed, std::uint64_t index, double p)
{
    return static_cast<double>(detHash(seed, index) >> 11) *
               0x1.0p-53 < p;
}

/**
 * 5-tuple connection hash: the two packed words of a
 * net::FiveTuple (src/dst IP in @p w0, ports + protocol in @p w1)
 * chained through detHash so both the host-side and switch-side load
 * balancer code derive bit-identical connection signatures. One
 * avalanche per word — cheap enough for the 500 MHz switch CPU —
 * and the result is the *only* flow identity the lb subsystem uses,
 * so a (vanishingly unlikely) 64-bit collision still yields a
 * consistent assignment everywhere.
 */
constexpr std::uint64_t
detTupleHash(std::uint64_t seed, std::uint64_t w0, std::uint64_t w1)
{
    return detHash(detHash(seed, w0), w1);
}

} // namespace san::apps

#endif // SAN_APPS_DET_HASH_HH
