/**
 * @file
 * CPU timing models.
 *
 * A Cpu is an accounting object that application processes (tasks)
 * charge time against. It does not fetch/decode an ISA; instead the
 * workload models call:
 *
 *  - compute(instr): busy time at one instruction per cycle,
 *  - touch(addr, bytes, kind): memory-hierarchy stall time,
 *  - fetchCode(pc, bytes): instruction-side stall time,
 *
 * each returning an awaitable Delay so the calling task advances
 * simulated time. Busy, cache-stall and idle components are tracked
 * for the paper's execution-time breakdowns.
 *
 * Two concrete configurations exist:
 *  - HostCpu: 2 GHz, host memory hierarchy (32K/32K L1, 512K L2),
 *    up to 4 overlapped outstanding store/prefetch lines.
 *  - SwitchCpu: 500 MHz single-issue MIPS-like embedded core, 4 KB
 *    I$ / 1 KB D$, no L2, one outstanding request.
 */

#ifndef SAN_CPU_CPU_HH
#define SAN_CPU_CPU_HH

#include <cstdint>
#include <string>

#include "mem/MemorySystem.hh"
#include "obs/Metrics.hh"
#include "sim/Simulation.hh"
#include "sim/Types.hh"

namespace san::cpu {

/** Busy/stall/idle split of a CPU's time over a run. */
struct TimeBreakdown {
    sim::Tick busy = 0;
    sim::Tick stall = 0;
    sim::Tick total = 0;

    sim::Tick
    idle() const
    {
        const sim::Tick used = busy + stall;
        return total > used ? total - used : 0;
    }

    /** Paper metric: (1 - idle/total). */
    double
    utilization() const
    {
        if (total == 0)
            return 0.0;
        return static_cast<double>(busy + stall) /
               static_cast<double>(total);
    }
};

/** A single-issue CPU timing model bound to a memory hierarchy. */
class Cpu
{
  public:
    Cpu(sim::Simulation &sim, std::string name, sim::Frequency freq,
        const mem::MemorySystemParams &mem_params)
        : sim_(sim), name_(std::move(name)), freq_(freq), mem_(mem_params)
    {}

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    const std::string &name() const { return name_; }
    sim::Frequency frequency() const { return freq_; }
    mem::MemorySystem &memory() { return mem_; }
    /** Current simulated time (for batched memory simulations). */
    sim::Tick now() const { return sim_.now(); }

    /** Busy-execute @p instructions at one per cycle. */
    sim::Delay
    compute(std::uint64_t instructions)
    {
        const sim::Tick t = freq_.cycles(instructions);
        busy_ += t;
        return sim::Delay{t};
    }

    /** Charge a fixed amount of busy time (OS overheads etc). */
    sim::Delay
    busyFor(sim::Tick t)
    {
        busy_ += t;
        return sim::Delay{t};
    }

    /**
     * Charge precomputed stall time. Used when a workload batches
     * many memory-system simulations (e.g. per-record hash probes)
     * and awaits their combined cost once.
     */
    sim::Delay
    stallFor(sim::Tick t)
    {
        stall_ += t;
        return sim::Delay{t};
    }

    /** Data access through the hierarchy; stall time is charged. */
    sim::Delay
    touch(mem::Addr addr, std::uint64_t bytes, mem::AccessKind kind)
    {
        const sim::Tick t = mem_.dataAccess(addr, bytes, kind, sim_.now());
        stall_ += t;
        return sim::Delay{t};
    }

    /** Instruction-side access for a phase's code footprint. */
    sim::Delay
    fetchCode(mem::Addr pc, std::uint64_t bytes)
    {
        const sim::Tick t = mem_.instFetch(pc, bytes, sim_.now());
        stall_ += t;
        return sim::Delay{t};
    }

    /** Breakdown against a run that lasted @p total ticks. */
    TimeBreakdown
    breakdown(sim::Tick total) const
    {
        return TimeBreakdown{busy_, stall_, total};
    }

    sim::Tick busyTicks() const { return busy_; }
    sim::Tick stallTicks() const { return stall_; }

    /**
     * Register this CPU's per-interval busy / stall / idle fractions
     * (the paper's breakdown bars, as a timeline) under @p prefix.
     */
    void
    registerMetrics(obs::MetricsRegistry &m,
                    const std::string &prefix) const
    {
        m.add(prefix + ".busy", obs::GaugeKind::TimeShare,
              [this] { return static_cast<double>(busy_); });
        m.add(prefix + ".stall", obs::GaugeKind::TimeShare,
              [this] { return static_cast<double>(stall_); });
        m.add(prefix + ".idle", obs::GaugeKind::IdleShare,
              [this] { return static_cast<double>(busy_ + stall_); });
    }

  protected:
    sim::Simulation &sim_;
    std::string name_;
    sim::Frequency freq_;
    mem::MemorySystem mem_;
    sim::Tick busy_ = 0;
    sim::Tick stall_ = 0;
};

/** Paper host processor: 2 GHz with the host memory hierarchy. */
class HostCpu : public Cpu
{
  public:
    static constexpr std::uint64_t defaultHz = 2'000'000'000;

    HostCpu(sim::Simulation &sim, std::string name,
            const mem::MemorySystemParams &mem_params =
                mem::hostMemoryParams())
        : Cpu(sim, std::move(name), sim::Frequency(defaultHz), mem_params)
    {}
};

/**
 * Paper embedded switch processor: 500 MHz (a quarter of the host
 * clock), tiny caches, blocking misses.
 */
class SwitchCpu : public Cpu
{
  public:
    static constexpr std::uint64_t defaultHz = 500'000'000;

    SwitchCpu(sim::Simulation &sim, std::string name,
              const mem::MemorySystemParams &mem_params =
                  mem::switchMemoryParams(),
              std::uint64_t hz = defaultHz)
        : Cpu(sim, std::move(name), sim::Frequency(hz), mem_params)
    {}
};

} // namespace san::cpu

#endif // SAN_CPU_CPU_HH
