/**
 * @file
 * Shared driver for the per-figure bench binaries: run one benchmark
 * across the four configurations, print the paper's two figure
 * tables, and verify the modes agree semantically.
 *
 * Observability flags (see README "Observability"):
 *   --quick              smaller problem sizes (per-bench choice)
 *   --stats-json <file>  write per-mode component stats as JSON
 *   --trace <file>       write a Chrome trace_event file (one trace
 *                        process per mode)
 *   --fingerprint        print each mode's 64-bit run fingerprint
 *   --metrics-csv <file> write a per-interval utilization time series
 *                        (CSV, or JSONL when the file ends .jsonl)
 *   --metrics-interval <micros>  sampling interval in simulated
 *                        microseconds (default 100)
 *   --perf               print per-mode wall clock and simulator
 *                        throughput (events/sec) lines, consumed by
 *                        tools/perf_baseline
 *   --threads N          run the simulation on N worker threads
 *                        (sharded conservative PDES; DESIGN.md §14).
 *                        N=1 (default) runs the system as one shard,
 *                        byte-identical to earlier releases.
 *                        Incompatible with --metrics-csv (the
 *                        interval sampler walks live component state
 *                        from its own event). Benches that drive the
 *                        simulator directly (ablations, micro_*)
 *                        ignore the flag.
 *   --telemetry[=N]      arm packet-lineage telemetry, sampling one
 *                        packet in N (default 1 = every packet; 0
 *                        arms the hooks without sampling, for
 *                        overhead measurement). Adds no events: run
 *                        fingerprints match untelemetered runs.
 *   --latency-report <file>  write the per-stage latency lineage
 *                        tables (requires --telemetry)
 *
 * Fault-injection flags (see DESIGN.md "Fault model and recovery"):
 *   --fault-spec KIND:RATE[:SEED]  arm a rate-driven fault class
 *                        (link-ber, credit-loss, handler-crash,
 *                        disk-spike, disk-timeout; "none:0" arms the
 *                        recovery protocol without injecting).
 *                        Repeatable.
 *   --fault-at TICK:KIND:TARGET  schedule one fault at/after TICK
 *                        picoseconds on a named component (a link
 *                        name, a storage TCA name, or a handler id
 *                        for handler-crash). Repeatable.
 *   --fault-seed SEED    base seed of every fault stream (default
 *                        fault::FaultPlan::defaultSeed)
 */

#ifndef SAN_BENCH_BENCH_COMMON_HH
#define SAN_BENCH_BENCH_COMMON_HH

#include <array>
#include <chrono>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include <vector>

#include "apps/Cluster.hh"
#include "apps/RunConfig.hh"
#include "fault/FaultPlan.hh"
#include "harness/Report.hh"
#include "harness/StatsReport.hh"
#include "obs/Hooks.hh"
#include "obs/Metrics.hh"
#include "obs/Telemetry.hh"
#include "obs/Trace.hh"
#include "sim/Types.hh"

namespace san::bench {

/** Command-line options shared by every figure bench. */
struct BenchOptions {
    bool quick = false;
    bool fingerprint = false;
    bool perf = false; //!< print per-mode wall clock and events/sec
    unsigned threads = 1; //!< PDES worker threads (1 = one shard)
    std::string statsJsonPath;
    std::string tracePath;
    std::string metricsCsvPath;
    sim::Tick metricsInterval = sim::us(100);
    std::vector<fault::FaultSpec> faultSpecs;
    std::vector<fault::FaultEvent> faultEvents;
    std::uint64_t faultSeed = fault::FaultPlan::defaultSeed;
    bool telemetry = false;                 //!< --telemetry given
    std::uint64_t telemetrySampleRate = 1;  //!< 1-in-N (0 = armed only)
    std::string latencyReportPath;
};

/** The options parsed by init() (defaults if init was never called). */
inline BenchOptions &
options()
{
    static BenchOptions opts;
    return opts;
}

namespace detail {

/** Trace file + exporter kept alive for the whole process. */
struct TraceState {
    std::ofstream file;
    std::unique_ptr<obs::ChromeTracer> tracer;
};

inline TraceState &
traceState()
{
    static TraceState state;
    return state;
}

/** Per-mode JSON stat dumps captured via the cluster observer. */
inline std::map<std::string, std::string> &
capturedStats()
{
    static std::map<std::string, std::string> stats;
    return stats;
}

/** Metrics file + sampler kept alive for the whole process. */
struct MetricsState {
    std::ofstream file;
    std::unique_ptr<obs::IntervalSampler> sampler;
};

inline MetricsState &
metricsState()
{
    static MetricsState state;
    return state;
}

/**
 * The installed fault plan. Rebuilt per mode by runFigure() so every
 * mode sees the same fault schedule (one-shot --fault-at events
 * re-arm, rate streams restart from their seeds).
 */
struct FaultState {
    std::unique_ptr<fault::FaultPlan> plan;
};

inline FaultState &
faultState()
{
    static FaultState state;
    return state;
}

/** The process-lifetime telemetry engine (installed by init()). */
struct TelemetryState {
    std::unique_ptr<obs::Telemetry> tel;
};

inline TelemetryState &
telemetryState()
{
    static TelemetryState state;
    return state;
}

} // namespace detail

/** True when any --fault-spec / --fault-at flag was given. */
inline bool
faultsConfigured()
{
    return !options().faultSpecs.empty() ||
           !options().faultEvents.empty();
}

/**
 * (Re)build the fault plan from the parsed flags and install it via
 * fault::globalPlan(). No-op without fault flags, so fault-free runs
 * keep the zero-overhead fast path.
 */
inline void
installFaultPlan()
{
    if (!faultsConfigured())
        return;
    const BenchOptions &opts = options();
    auto &fs = detail::faultState();
    fs.plan = std::make_unique<fault::FaultPlan>(opts.faultSeed);
    for (const auto &spec : opts.faultSpecs)
        fs.plan->addSpec(spec);
    for (const auto &event : opts.faultEvents)
        fs.plan->addEvent(event);
    fault::globalPlan() = fs.plan.get();
}

/**
 * Parse the shared flags and install the requested instrumentation
 * (tracer hook, stats-capturing cluster observer). Call once at the
 * top of main(); returns the parsed options.
 */
inline BenchOptions &
init(int argc, char **argv)
{
    BenchOptions &opts = options();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            opts.quick = true;
        } else if (std::strcmp(argv[i], "--fingerprint") == 0) {
            opts.fingerprint = true;
        } else if (std::strcmp(argv[i], "--perf") == 0) {
            opts.perf = true;
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --threads requires a count\n";
                std::exit(2);
            }
            const char *arg = argv[++i];
            char *end = nullptr;
            const unsigned long n = std::strtoul(arg, &end, 0);
            if (end == arg || *end != '\0' || n == 0 || n > 256) {
                std::cerr << "error: --threads needs an integer in "
                             "[1, 256], got '"
                          << arg << "'\n";
                std::exit(2);
            }
            opts.threads = static_cast<unsigned>(n);
        } else if (std::strcmp(argv[i], "--stats-json") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --stats-json requires a file\n";
                std::exit(2);
            }
            opts.statsJsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --trace requires a file\n";
                std::exit(2);
            }
            opts.tracePath = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-csv") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --metrics-csv requires a file\n";
                std::exit(2);
            }
            opts.metricsCsvPath = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-interval") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --metrics-interval requires a "
                             "value in microseconds\n";
                std::exit(2);
            }
            const char *arg = argv[++i];
            char *end = nullptr;
            const double micros = std::strtod(arg, &end);
            if (end == arg || *end != '\0' || !(micros > 0)) {
                std::cerr << "error: --metrics-interval needs a "
                             "positive number of microseconds, got '"
                          << arg << "'\n";
                std::exit(2);
            }
            opts.metricsInterval =
                static_cast<sim::Tick>(micros * 1e6); // us -> ps
            if (opts.metricsInterval == 0) {
                std::cerr << "error: --metrics-interval '" << arg
                          << "' is below one picosecond\n";
                std::exit(2);
            }
        } else if (std::strcmp(argv[i], "--fault-spec") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --fault-spec requires "
                             "KIND:RATE[:SEED]\n";
                std::exit(2);
            }
            std::string error;
            const auto spec =
                fault::FaultPlan::parseSpec(argv[++i], &error);
            if (!spec) {
                std::cerr << "error: --fault-spec: " << error << "\n";
                std::exit(2);
            }
            opts.faultSpecs.push_back(*spec);
        } else if (std::strcmp(argv[i], "--fault-at") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --fault-at requires "
                             "TICK:KIND:TARGET\n";
                std::exit(2);
            }
            std::string error;
            auto event = fault::FaultPlan::parseAt(argv[++i], &error);
            if (!event) {
                std::cerr << "error: --fault-at: " << error << "\n";
                std::exit(2);
            }
            opts.faultEvents.push_back(std::move(*event));
        } else if (std::strcmp(argv[i], "--telemetry") == 0) {
            opts.telemetry = true;
            opts.telemetrySampleRate = 1;
        } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
            const char *arg = argv[i] + 12;
            char *end = nullptr;
            opts.telemetrySampleRate = std::strtoull(arg, &end, 0);
            if (end == arg || *end != '\0') {
                std::cerr << "error: --telemetry=N needs an integer "
                             "sample rate, got '"
                          << arg << "'\n";
                std::exit(2);
            }
            opts.telemetry = true;
        } else if (std::strcmp(argv[i], "--latency-report") == 0) {
            if (i + 1 >= argc) {
                std::cerr
                    << "error: --latency-report requires a file\n";
                std::exit(2);
            }
            opts.latencyReportPath = argv[++i];
        } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --fault-seed requires a value\n";
                std::exit(2);
            }
            const char *arg = argv[++i];
            char *end = nullptr;
            opts.faultSeed = std::strtoull(arg, &end, 0);
            if (end == arg || *end != '\0') {
                std::cerr << "error: --fault-seed needs an integer, "
                             "got '"
                          << arg << "'\n";
                std::exit(2);
            }
        }
    }

    auto reject_collision = [](const std::string &a_flag,
                               const std::string &a,
                               const std::string &b_flag,
                               const std::string &b) {
        if (!a.empty() && a == b) {
            std::cerr << "error: " << a_flag << " and " << b_flag
                      << " must name different files\n";
            std::exit(2);
        }
    };
    reject_collision("--trace", opts.tracePath, "--stats-json",
                     opts.statsJsonPath);
    reject_collision("--metrics-csv", opts.metricsCsvPath, "--trace",
                     opts.tracePath);
    reject_collision("--metrics-csv", opts.metricsCsvPath,
                     "--stats-json", opts.statsJsonPath);
    reject_collision("--latency-report", opts.latencyReportPath,
                     "--trace", opts.tracePath);
    reject_collision("--latency-report", opts.latencyReportPath,
                     "--stats-json", opts.statsJsonPath);
    reject_collision("--latency-report", opts.latencyReportPath,
                     "--metrics-csv", opts.metricsCsvPath);

    if (!opts.latencyReportPath.empty() && !opts.telemetry) {
        std::cerr << "error: --latency-report requires --telemetry\n";
        std::exit(2);
    }
    if (opts.threads > 1 && !opts.metricsCsvPath.empty()) {
        std::cerr << "error: --metrics-csv requires --threads 1 (the "
                     "interval sampler reads live component state "
                     "from a simulation event)\n";
        std::exit(2);
    }
    if (opts.telemetry) {
        auto &ts = detail::telemetryState();
        ts.tel =
            std::make_unique<obs::Telemetry>(opts.telemetrySampleRate);
        obs::globalTelemetry() = ts.tel.get();
    }

    if (!opts.tracePath.empty()) {
        auto &ts = detail::traceState();
        ts.file.open(opts.tracePath);
        if (ts.file) {
            ts.tracer = std::make_unique<obs::ChromeTracer>(ts.file);
            obs::globalTracer() = ts.tracer.get();
        } else {
            std::cerr << "cannot open trace file " << opts.tracePath
                      << "\n";
        }
    }

    if (!opts.metricsCsvPath.empty()) {
        auto &ms = detail::metricsState();
        ms.file.open(opts.metricsCsvPath);
        if (ms.file) {
            const bool jsonl =
                opts.metricsCsvPath.size() >= 6 &&
                opts.metricsCsvPath.compare(
                    opts.metricsCsvPath.size() - 6, 6, ".jsonl") == 0;
            ms.sampler = std::make_unique<obs::IntervalSampler>(
                ms.file, opts.metricsInterval,
                jsonl ? obs::MetricsFormat::Jsonl
                      : obs::MetricsFormat::Csv);
            if (obs::globalTracer())
                ms.sampler->setMirror(obs::globalTracer());
            obs::globalSampler() = ms.sampler.get();
        } else {
            std::cerr << "cannot open metrics file "
                      << opts.metricsCsvPath << "\n";
        }
    }

    if (!opts.statsJsonPath.empty()) {
        apps::clusterObserver() = [](apps::Cluster &cluster,
                                     apps::Mode mode) {
            std::ostringstream oss;
            obs::JsonWriter json(oss);
            harness::dumpClusterStatsJson(json, cluster);
            detail::capturedStats()[apps::modeName(mode)] = oss.str();
        };
    }

    installFaultPlan();
    if (faultsConfigured())
        std::cerr << "fault plan:\n"
                  << detail::faultState().plan->describe();
    return opts;
}

/** True if --quick appears in the argument list. */
inline bool
quickMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            return true;
    return false;
}

namespace detail {

/** Write the per-mode stats captured during runFigure() to disk. */
inline void
writeStatsJson(const std::string &path, const std::string &title)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open stats file " << path << "\n";
        return;
    }
    out << "{\n  \"bench\": \"" << title << "\",\n  \"modes\": {";
    bool first = true;
    for (const auto &[mode, json] : capturedStats()) {
        if (!first)
            out << ",";
        first = false;
        // Indent the captured object two levels under "modes".
        out << "\n    \"" << mode << "\": ";
        std::istringstream in(json);
        std::string line;
        bool first_line = true;
        while (std::getline(in, line)) {
            if (!first_line)
                out << "\n    ";
            first_line = false;
            out << line;
        }
    }
    out << "\n  }\n}\n";
}

} // namespace detail

/**
 * Run @p run_one for all four modes, print overview and/or breakdown
 * tables, and check the semantic checksum.
 * @return process exit code.
 */
inline int
runFigure(const std::string &overview_title,
          const std::string &breakdown_title,
          const std::function<apps::RunStats(apps::Mode)> &run_one,
          bool print_overview = true, bool print_breakdown = true)
{
    const BenchOptions &opts = options();
    harness::ModeResults results;
    std::array<double, apps::allModes.size()> wallMs{};
    std::array<double, apps::allModes.size()> cpuMs{};
    for (std::size_t i = 0; i < apps::allModes.size(); ++i) {
        if (detail::traceState().tracer)
            detail::traceState().tracer->beginProcess(
                apps::modeName(apps::allModes[i]));
        if (detail::metricsState().sampler)
            detail::metricsState().sampler->setRunLabel(
                apps::modeName(apps::allModes[i]));
        // Fresh plan per mode: one-shot events re-arm, rate streams
        // restart, so every mode faces the same fault schedule.
        installFaultPlan();
        // Fresh sampler phase per mode, so every mode samples the
        // same 1-in-N positions of its packet stream.
        if (obs::Telemetry *tel = obs::globalTelemetry())
            tel->beginRun(apps::modeName(apps::allModes[i]));
        const auto t0 = std::chrono::steady_clock::now();
        const std::clock_t c0 = std::clock();
        results[i] = run_one(apps::allModes[i]);
        cpuMs[i] = 1e3 * static_cast<double>(std::clock() - c0) /
                   CLOCKS_PER_SEC;
        wallMs[i] = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    }

    if (print_overview)
        harness::printOverview(std::cout, overview_title, results);
    if (print_breakdown)
        harness::printBreakdown(std::cout, breakdown_title, results);
    harness::printHandlerProfile(std::cout,
                                 overview_title.empty()
                                     ? breakdown_title
                                     : overview_title,
                                 results);

    if (opts.fingerprint)
        for (const auto &r : results)
            std::cout << "fingerprint[" << apps::modeName(r.mode)
                      << "]: 0x" << std::hex << r.fingerprint
                      << std::dec << "\n";
    // events_per_sec divides by process CPU time, not wall time:
    // these runs last milliseconds, so a noisy-neighbor descheduling
    // would otherwise dominate the figure the perf gate compares.
    if (opts.perf)
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            const double secs = cpuMs[i] / 1e3;
            const double eps =
                secs > 0 ? static_cast<double>(r.eventsExecuted) / secs
                         : 0.0;
            std::cout << "perf[" << apps::modeName(r.mode)
                      << "]: events=" << r.eventsExecuted
                      << " wall_ms=" << std::fixed
                      << std::setprecision(3) << wallMs[i]
                      << " cpu_ms=" << cpuMs[i]
                      << " events_per_sec=" << std::setprecision(0)
                      << eps << std::defaultfloat
                      << std::setprecision(6) << "\n";
        }
    if (!opts.statsJsonPath.empty())
        detail::writeStatsJson(opts.statsJsonPath,
                               overview_title.empty() ? breakdown_title
                                                      : overview_title);
    if (!opts.latencyReportPath.empty()) {
        std::ofstream out(opts.latencyReportPath);
        if (out)
            harness::printLatencyReport(out,
                                        overview_title.empty()
                                            ? breakdown_title
                                            : overview_title,
                                        results);
        else
            std::cerr << "cannot open latency report file "
                      << opts.latencyReportPath << "\n";
    }
    if (detail::traceState().tracer)
        detail::traceState().tracer->finish();

    if (!harness::checksumsAgree(results)) {
        std::cerr << "CHECKSUM MISMATCH across modes\n";
        harness::printRaw(std::cerr, results);
        return 1;
    }
    std::cout << "checksum: " << results[0].checksum << "\n";
    return 0;
}

/**
 * Whole-main() driver for the breakdown-figure benches (Fig 4, 6, 8,
 * 10, 12, 14), which differ only in the app run function and how
 * --quick shrinks the problem. @p quick_shrink (may be empty) adjusts
 * the default-constructed params when --quick was given.
 */
template <typename Params>
int
runBreakdownFigure(int argc, char **argv, const std::string &title,
                   apps::RunStats (*run_one)(apps::Mode,
                                             const Params &),
                   const std::function<void(Params &)> &quick_shrink =
                       {})
{
    Params params;
    if (init(argc, argv).quick && quick_shrink)
        quick_shrink(params);
    return runFigure(
        "", title,
        [&](apps::Mode m) { return run_one(m, params); }, false, true);
}

} // namespace san::bench

#endif // SAN_BENCH_BENCH_COMMON_HH
