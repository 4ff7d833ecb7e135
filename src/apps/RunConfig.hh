/**
 * @file
 * The four evaluation configurations and per-run result metrics.
 *
 * Every benchmark runs in the paper's four cases:
 *   normal       — host only, synchronous I/O (one outstanding req)
 *   normal+pref  — host only, two outstanding I/O requests
 *   active       — host + switch handlers, one outstanding request
 *   active+pref  — host + switch handlers, two outstanding requests
 */

#ifndef SAN_APPS_RUN_CONFIG_HH
#define SAN_APPS_RUN_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/Cpu.hh"
#include "fault/FaultPlan.hh"
#include "obs/Telemetry.hh"
#include "sim/Types.hh"

namespace san::apps {

enum class Mode { Normal, NormalPref, Active, ActivePref };

inline constexpr std::array<Mode, 4> allModes = {
    Mode::Normal, Mode::NormalPref, Mode::Active, Mode::ActivePref};

constexpr bool
isActive(Mode m)
{
    return m == Mode::Active || m == Mode::ActivePref;
}

constexpr bool
isPref(Mode m)
{
    return m == Mode::NormalPref || m == Mode::ActivePref;
}

/** Number of outstanding I/O requests in this mode. */
constexpr unsigned
outstandingRequests(Mode m)
{
    return isPref(m) ? 2 : 1;
}

inline const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Normal: return "normal";
      case Mode::NormalPref: return "normal+pref";
      case Mode::Active: return "active";
      case Mode::ActivePref: return "active+pref";
    }
    return "?";
}

/**
 * One handler program's switch-CPU cost over a run, in cycles of the
 * embedded core (the profiler view of the "a-SP" bars).
 */
struct HandlerCpuProfile {
    std::uint8_t id = 0;
    std::string name;
    std::uint64_t invocations = 0;
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;
    sim::Tick busyTicks = 0;
    sim::Tick stallTicks = 0;
    std::uint64_t busyCycles = 0;
    double cyclesPerByte = 0.0; //!< busyCycles / bytes processed
};

/**
 * Fault-injection and recovery counters of one run. All zero — and
 * `active` false — unless a fault plan was installed (fault/): the
 * struct exists so reliability sweeps can read recovery behaviour
 * without touching component internals, and the stats JSON's fault
 * object renders it. Reliable-channel counters sum every endpoint
 * engine (adapters and the switch).
 */
struct FaultStats {
    bool active = false;           //!< a fault plan drove this run
    std::uint64_t injected = 0;    //!< total faults injected
    /** Faults injected, per fault::FaultKind. */
    std::array<std::uint64_t, fault::faultKindCount> injectedByKind{};
    std::uint64_t retransmits = 0; //!< data packets resent (all flows)
    std::uint64_t timeouts = 0;    //!< retransmit-timer expiries
    std::uint64_t crcDrops = 0;    //!< corrupt packets caught on arrival
    std::uint64_t dupDrops = 0;    //!< duplicates suppressed (dedup)
    std::uint64_t oooDrops = 0;    //!< out-of-order arrivals dropped
    std::uint64_t controlDrops = 0; //!< corrupt ACK/NACKs dropped
    std::uint64_t acksSent = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t flowAborts = 0;  //!< flows past the retry budget
    std::uint64_t failovers = 0;   //!< handler crash relaunches
    std::uint64_t switchDrops = 0; //!< packets the switch dropped
    std::uint64_t ioRetries = 0;   //!< disk chunk reads re-issued
    std::uint64_t ioErrors = 0;    //!< completions with error status
    std::uint64_t ioSpikes = 0;    //!< disk latency spikes
    std::uint64_t packetsCorrupted = 0; //!< link bit errors
    std::uint64_t creditsLost = 0; //!< link credit flits lost
};

/**
 * Load-balancer counters of one run. All zero — and `active` false —
 * unless the run drove the lb subsystem (src/lb). Like FaultStats,
 * NOT folded into the fingerprint: the event stream already is.
 */
struct LbStats {
    bool active = false;            //!< an lb workload drove this run
    std::uint64_t lookups = 0;      //!< connection-table lookups
    std::uint64_t hotHits = 0;      //!< resolved in the D$ hot index
    std::uint64_t tableHits = 0;    //!< resolved in the full table
    std::uint64_t misses = 0;       //!< unknown connection
    std::uint64_t inserts = 0;      //!< connections admitted
    std::uint64_t insertFailures = 0; //!< table full / probe cap hit
    std::uint64_t removes = 0;      //!< connections retired (FIN)
    std::uint64_t forwarded = 0;    //!< packets sent to a backend
    std::uint64_t punts = 0;        //!< packets punted to the host
    std::uint64_t migrations = 0;   //!< flows reassigned (backend died)
    std::uint64_t flowsTracked = 0; //!< live entries at end of run
    std::uint64_t peakFlows = 0;    //!< peak live entries
    std::uint64_t backendDownEvents = 0;
    std::uint64_t backendUpEvents = 0;
    std::uint64_t hotBytes = 0;     //!< hot-index footprint (<= 1 KB)
    std::uint64_t tableBytes = 0;   //!< full-table footprint
    std::uint64_t tableCapacity = 0; //!< table entries
    double occupancy = 0.0;         //!< live entries / table capacity
    std::uint64_t backendsAlive = 0; //!< at end of run
    /** Packets each backend received from the balancer. */
    std::vector<std::uint64_t> backendPackets;
};

/** Results of one benchmark run in one mode. */
struct RunStats {
    Mode mode = Mode::Normal;
    sim::Tick execTime = 0;

    /** Kernel events executed by this run (simulator throughput
     * denominator for the perf harness; not part of the stats JSON). */
    std::uint64_t eventsExecuted = 0;

    /** Per-host breakdowns ("n-HP" bars of the paper's figures). */
    std::vector<cpu::TimeBreakdown> hosts;
    /** Per-switch-CPU breakdowns ("a-SP" bars). */
    std::vector<cpu::TimeBreakdown> switchCpus;

    /** Bytes in+out of host HCAs (the paper's host I/O traffic). */
    std::uint64_t hostIoBytes = 0;

    /** Per-handler switch-CPU profiles (active modes only). */
    std::vector<HandlerCpuProfile> handlerProfiles;

    /**
     * Run fingerprint: a 64-bit hash of every executed event plus the
     * end-of-run stat values (see obs::RunFingerprint). Two runs of
     * the same configuration must produce the same fingerprint.
     */
    std::uint64_t fingerprint = 0;

    /** Optional semantic check result (digest, match count...). */
    std::string checksum;

    /** Fault/recovery counters; all-zero without a fault plan. NOT
     * folded into the fingerprint (the event stream already is). */
    FaultStats faults;

    /** Packet-lineage latency telemetry; inactive (and empty) unless
     * --telemetry armed the collector. Like FaultStats, NOT folded
     * into the fingerprint: telemetry observes the event stream, it
     * never perturbs it. */
    obs::TelemetryStats telemetry;

    /** Load-balancer counters; inactive unless an lb workload ran.
     * NOT folded into the fingerprint (same rule as FaultStats). */
    LbStats lb;

    /** Mean host utilization: (1 - idle/total). */
    double
    hostUtilization() const
    {
        if (hosts.empty())
            return 0.0;
        double sum = 0;
        for (const auto &h : hosts)
            sum += h.utilization();
        return sum / static_cast<double>(hosts.size());
    }

    /** Mean switch CPU utilization. */
    double
    switchUtilization() const
    {
        if (switchCpus.empty())
            return 0.0;
        double sum = 0;
        for (const auto &s : switchCpus)
            sum += s.utilization();
        return sum / static_cast<double>(switchCpus.size());
    }
};

} // namespace san::apps

#endif // SAN_APPS_RUN_CONFIG_HH
