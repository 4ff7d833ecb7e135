/**
 * @file
 * Deterministic pseudo-random number generation and hashing.
 *
 * All randomness in the simulator flows through explicitly seeded
 * Random instances so that every experiment is exactly reproducible.
 * The generator is xoshiro256** (public domain, Blackman & Vigna).
 * Every stateless hash in the simulator is built from the two
 * primitives here: splitmix64's finalizer and FNV-1a-64.
 */

#ifndef SAN_SIM_RANDOM_HH
#define SAN_SIM_RANDOM_HH

#include <cstdint>
#include <string_view>

namespace san::sim {

/** The 64-bit golden ratio, splitmix64's stream increment. */
inline constexpr std::uint64_t goldenGamma = 0x9e3779b97f4a7c15ull;

/** splitmix64's finalizer: a full-avalanche 64-bit mix. */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** FNV-1a-64 over @p text: stable across runs and platforms. */
constexpr std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Small, fast, deterministic PRNG (xoshiro256**). */
class Random
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit value. */
    explicit Random(std::uint64_t seed = goldenGamma)
    {
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = mix64(x += goldenGamma);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Debiased via rejection from the top of the range.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return real() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace san::sim

#endif // SAN_SIM_RANDOM_HH
