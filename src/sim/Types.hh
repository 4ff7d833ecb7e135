/**
 * @file
 * Fundamental simulation types: the tick clock and unit helpers.
 *
 * The simulator measures time in integer picoseconds. A picosecond
 * base unit lets us represent both a 2 GHz host-CPU cycle (500 ps) and
 * a 500 MHz switch-CPU cycle (2000 ps) exactly, with enough range in
 * 64 bits for ~200 days of simulated time.
 */

#ifndef SAN_SIM_TYPES_HH
#define SAN_SIM_TYPES_HH

#include <cstdint>

namespace san::sim {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "no time" / "infinitely far in the future". */
inline constexpr Tick maxTick = ~Tick(0);

/** a + b, saturating at maxTick instead of wrapping past the end of
 * time (window bounds and PDES horizons near maxTick). */
constexpr Tick
saturatingAdd(Tick a, Tick b)
{
    return a > maxTick - b ? maxTick : a + b;
}

/** @{ Unit constructors for ticks. */
constexpr Tick
ps(std::uint64_t v)
{
    return v;
}

constexpr Tick
ns(std::uint64_t v)
{
    return v * 1000;
}

constexpr Tick
us(std::uint64_t v)
{
    return v * 1000 * 1000;
}

constexpr Tick
ms(std::uint64_t v)
{
    return v * 1000ull * 1000 * 1000;
}

constexpr Tick
sec(std::uint64_t v)
{
    return v * 1000ull * 1000 * 1000 * 1000;
}
/** @} */

/** Convert ticks to floating-point seconds/milli/micro for reporting. */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) * 1e-12;
}

constexpr double
toMillis(Tick t)
{
    return static_cast<double>(t) * 1e-9;
}

constexpr double
toMicros(Tick t)
{
    return static_cast<double>(t) * 1e-6;
}

/**
 * A fixed clock frequency, converting between cycles and ticks.
 *
 * Periods are integral picoseconds, so only frequencies that divide
 * 1 THz evenly are representable exactly (2 GHz -> 500 ps, 500 MHz ->
 * 2000 ps, etc.), which covers every clock in the modelled system.
 */
class Frequency
{
  public:
    explicit constexpr Frequency(std::uint64_t hz)
        : hz_(hz), period_(1000ull * 1000 * 1000 * 1000 / hz)
    {}

    constexpr std::uint64_t hz() const { return hz_; }
    constexpr Tick period() const { return period_; }

    /** Ticks taken by @p n cycles at this frequency. */
    constexpr Tick cycles(std::uint64_t n) const { return n * period_; }

  private:
    std::uint64_t hz_;
    Tick period_;
};

/** @{ Bandwidths are expressed as picoseconds per byte. */
using PsPerByte = double;

/** Picoseconds per byte for a bandwidth given in bytes per second. */
constexpr PsPerByte
bytesPerSec(double bps)
{
    return 1e12 / bps;
}

/** Transfer time of @p bytes at @p cost ps/byte, rounded up. */
constexpr Tick
transferTime(std::uint64_t bytes, PsPerByte cost)
{
    double t = static_cast<double>(bytes) * cost;
    return static_cast<Tick>(t + 0.999999);
}
/** @} */

/** @{ Common size units. */
inline constexpr std::uint64_t KiB = 1024;
inline constexpr std::uint64_t MiB = 1024 * 1024;
inline constexpr std::uint64_t GiB = 1024ull * 1024 * 1024;
/** @} */

} // namespace san::sim

#endif // SAN_SIM_TYPES_HH
