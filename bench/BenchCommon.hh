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
 *                        byte-identical to earlier releases. Only
 *                        benches whose runs shard accept N > 1; the
 *                        others exit 2 (see init()). Incompatible
 *                        with --metrics-csv (the interval sampler
 *                        walks live component state from its own
 *                        event).
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
 *
 * Every bench parses its command line with one strict parser (Flags):
 * an argument no flag claims, a missing value, or a value that does
 * not parse in full exits 2 and names it.
 */

#ifndef SAN_BENCH_BENCH_COMMON_HH
#define SAN_BENCH_BENCH_COMMON_HH

#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/Cluster.hh"
#include "apps/RunConfig.hh"
#include "fault/FaultPlan.hh"
#include "harness/Report.hh"
#include "harness/StatsReport.hh"
#include "obs/Metrics.hh"
#include "obs/Telemetry.hh"
#include "obs/Trace.hh"
#include "sim/RunContext.hh"
#include "sim/Types.hh"

namespace san::bench {

/**
 * A strict command-line parser. Every argument must belong to a flag
 * added here and every value must parse in full; anything else exits
 * 2 naming the argument, so a mistyped gate flag cannot switch its
 * gate off unnoticed.
 */
class Flags
{
  public:
    /** Takes one flag value; returns what is wrong with it, or an
     * empty string if it was accepted. */
    using Handler = std::function<std::string(const char *)>;

    /** A flag without a value. */
    Flags &
    flag(const char *name, std::function<void()> on)
    {
        entries_.push_back({name, false, [on](const char *) {
                                on();
                                return std::string();
                            }});
        return *this;
    }

    /** A flag without a value that sets @p out. */
    Flags &
    flag(const char *name, bool &out)
    {
        return flag(name, [&out] { out = true; });
    }

    /** A flag with a value: the next argument, or, when @p name ends
     * in '=', the rest of the same argument. */
    Flags &
    value(const char *name, Handler on)
    {
        entries_.push_back({name, true, std::move(on)});
        return *this;
    }

    /** A numeric flag: the whole value must parse as a T. */
    template <typename T>
        requires std::is_arithmetic_v<T>
    Flags &
    number(const char *name, T &out)
    {
        return value(name,
                     [&out](const char *v) { return parseNumber(v, out); });
    }

    /** A numeric flag that overrides a default chosen after parsing. */
    template <typename T>
    Flags &
    number(const char *name, std::optional<T> &out)
    {
        return value(name, [&out](const char *v) {
            T x{};
            std::string error = parseNumber(v, x);
            if (error.empty())
                out = x;
            return error;
        });
    }

    /** Parse @p text in full as a T: a finite number for a floating
     * type, a non-negative integer in T's range (decimal, 0x hex or
     * 0 octal) otherwise. */
    template <typename T>
    static std::string
    parseNumber(const char *text, T &out)
    {
        char *end = nullptr;
        errno = 0;
        if constexpr (std::is_floating_point_v<T>) {
            const double v = std::strtod(text, &end);
            if (end == text || *end != '\0' || errno == ERANGE ||
                !std::isfinite(v))
                return "needs a number";
            out = static_cast<T>(v);
        } else {
            const unsigned long long v = std::strtoull(text, &end, 0);
            if (end == text || *end != '\0' || *text < '0' ||
                *text > '9' || errno == ERANGE ||
                v > std::numeric_limits<T>::max())
                return "needs a non-negative integer";
            out = static_cast<T>(v);
        }
        return {};
    }

    /** Apply every argument to its flag, or exit 2. */
    void
    parse(int argc, char **argv) const
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const Entry *hit = nullptr;
            bool attached = false;
            for (const Entry &e : entries_) {
                attached = e.name.back() == '=';
                if (attached ? arg.compare(0, e.name.size(), e.name) == 0
                             : arg == e.name) {
                    hit = &e;
                    break;
                }
            }
            if (hit == nullptr)
                fail("unrecognised argument '" + arg + "'");
            const char *val = "";
            if (attached) {
                val = argv[i] + hit->name.size();
            } else if (hit->takesValue) {
                if (i + 1 >= argc)
                    fail(hit->name + " requires a value");
                val = argv[++i];
            }
            const std::string error = hit->on(val);
            if (!error.empty())
                fail(hit->name + (attached ? "" : " ") + val + ": " +
                     error);
        }
    }

  private:
    struct Entry {
        std::string name;
        bool takesValue;
        Handler on;
    };

    [[noreturn]] static void
    fail(const std::string &what)
    {
        std::cerr << "error: " << what << "\n";
        std::exit(2);
    }

    std::vector<Entry> entries_;
};

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

/** The instruments the flags armed, and their output files. */
struct Instruments {
    std::ofstream traceFile;
    std::unique_ptr<obs::ChromeTracer> tracer;
    std::ofstream metricsFile;
    std::unique_ptr<obs::IntervalSampler> sampler;
    std::unique_ptr<fault::FaultPlan> plan; //!< null without fault flags
    std::unique_ptr<obs::Telemetry> telemetry;
};

inline Instruments &
instruments()
{
    static Instruments state;
    return state;
}

/** Per-mode JSON stat dumps captured via the cluster observer. */
inline std::map<std::string, std::string> &
capturedStats()
{
    static std::map<std::string, std::string> stats;
    return stats;
}

} // namespace detail

/**
 * Build a fresh fault plan from the parsed flags, so a run faces the
 * whole schedule: one-shot --fault-at events re-arm and rate streams
 * restart from their seeds. No-op without fault flags, so fault-free
 * runs keep the zero-overhead fast path.
 */
inline void
rebuildFaultPlan()
{
    const BenchOptions &opts = options();
    if (opts.faultSpecs.empty() && opts.faultEvents.empty())
        return;
    auto plan = std::make_unique<fault::FaultPlan>(opts.faultSeed);
    for (const auto &spec : opts.faultSpecs)
        plan->addSpec(spec);
    for (const auto &event : opts.faultEvents)
        plan->addEvent(event);
    detail::instruments().plan = std::move(plan);
}

/**
 * Start the run labelled @p label (a mode name) and return its
 * context: a new trace process and metrics run label, a fresh fault
 * plan, and a fresh telemetry sampler phase, so every mode faces the
 * same fault schedule and samples the same 1-in-N packets.
 */
inline sim::RunContext
beginRun(const char *label)
{
    detail::Instruments &in = detail::instruments();
    if (in.tracer)
        in.tracer->beginProcess(label);
    if (in.sampler)
        in.sampler->setRunLabel(label);
    rebuildFaultPlan();
    if (in.telemetry)
        in.telemetry->beginRun();
    return {in.tracer.get(), in.sampler.get(), in.plan.get(),
            in.telemetry.get()};
}

/**
 * The run context for one simulation of a bench that drives its own
 * simulations instead of runFigure(): a fresh fault plan, so the run
 * faces the whole schedule whatever ran before it, and the telemetry
 * collector every run shares. None is traced or sampled. Call once
 * per Simulation, after the previous one is gone: the call replaces
 * the plan that run was handed.
 */
inline sim::RunContext
faultsAndTelemetry()
{
    rebuildFaultPlan();
    const detail::Instruments &in = detail::instruments();
    return {.faults = in.plan.get(), .telemetry = in.telemetry.get()};
}

/**
 * Parse the shared flags, plus the bench's own @p flags, and arm the
 * requested instruments (see beginRun()) and the stats-capturing
 * cluster observer. Call once at the top of main(); returns the
 * parsed options. A bench whose runs shard passes @p threaded; every
 * other bench rejects --threads N > 1 rather than silently running
 * one shard.
 */
inline BenchOptions &
init(int argc, char **argv, bool threaded = false, Flags flags = {})
{
    BenchOptions &opts = options();
    const auto path = [](std::string &out) {
        return [&out](const char *v) {
            out = v;
            return std::string();
        };
    };
    flags.flag("--quick", opts.quick)
        .flag("--fingerprint", opts.fingerprint)
        .flag("--perf", opts.perf)
        .value("--threads",
               [&opts](const char *v) {
                   unsigned long n = 0;
                   if (!Flags::parseNumber(v, n).empty() || n == 0 ||
                       n > 256)
                       return std::string("needs an integer in [1, 256]");
                   opts.threads = static_cast<unsigned>(n);
                   return std::string();
               })
        .value("--stats-json", path(opts.statsJsonPath))
        .value("--trace", path(opts.tracePath))
        .value("--metrics-csv", path(opts.metricsCsvPath))
        .value("--metrics-interval",
               [&opts](const char *v) {
                   double micros = 0.0;
                   if (!Flags::parseNumber(v, micros).empty() ||
                       !(micros > 0) ||
                       micros * 1e6 >= static_cast<double>(sim::maxTick))
                       return std::string(
                           "needs a positive number of microseconds");
                   opts.metricsInterval =
                       static_cast<sim::Tick>(micros * 1e6); // us -> ps
                   if (opts.metricsInterval == 0)
                       return std::string("is below one picosecond");
                   return std::string();
               })
        .value("--fault-spec",
               [&opts](const char *v) {
                   std::string error;
                   const auto spec = fault::FaultPlan::parseSpec(v, &error);
                   if (!spec)
                       return error;
                   opts.faultSpecs.push_back(*spec);
                   return std::string();
               })
        .value("--fault-at",
               [&opts](const char *v) {
                   std::string error;
                   auto event = fault::FaultPlan::parseAt(v, &error);
                   if (!event)
                       return error;
                   opts.faultEvents.push_back(std::move(*event));
                   return std::string();
               })
        .number("--fault-seed", opts.faultSeed)
        .flag("--telemetry",
              [&opts] {
                  opts.telemetry = true;
                  opts.telemetrySampleRate = 1;
              })
        .value("--telemetry=",
               [&opts](const char *v) {
                   opts.telemetry = true;
                   return Flags::parseNumber(v, opts.telemetrySampleRate);
               })
        .value("--latency-report", path(opts.latencyReportPath));
    flags.parse(argc, argv);

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
    if (opts.threads > 1 && !threaded) {
        std::cerr << "error: --threads " << opts.threads
                  << ": this bench runs its simulations on one shard "
                     "(use --threads 1)\n";
        std::exit(2);
    }
    if (opts.threads > 1 && !opts.metricsCsvPath.empty()) {
        std::cerr << "error: --metrics-csv requires --threads 1 (the "
                     "interval sampler reads live component state "
                     "from a simulation event)\n";
        std::exit(2);
    }
    detail::Instruments &in = detail::instruments();
    if (opts.telemetry)
        in.telemetry =
            std::make_unique<obs::Telemetry>(opts.telemetrySampleRate);

    if (!opts.tracePath.empty()) {
        in.traceFile.open(opts.tracePath);
        if (in.traceFile) {
            in.tracer = std::make_unique<obs::ChromeTracer>(in.traceFile);
        } else {
            std::cerr << "cannot open trace file " << opts.tracePath
                      << "\n";
        }
    }

    if (!opts.metricsCsvPath.empty()) {
        in.metricsFile.open(opts.metricsCsvPath);
        if (in.metricsFile) {
            const bool jsonl =
                opts.metricsCsvPath.size() >= 6 &&
                opts.metricsCsvPath.compare(
                    opts.metricsCsvPath.size() - 6, 6, ".jsonl") == 0;
            in.sampler = std::make_unique<obs::IntervalSampler>(
                in.metricsFile, opts.metricsInterval,
                jsonl ? obs::MetricsFormat::Jsonl
                      : obs::MetricsFormat::Csv);
            if (in.tracer)
                in.sampler->setMirror(in.tracer.get());
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

    rebuildFaultPlan();
    if (in.plan)
        std::cerr << "fault plan:\n" << in.plan->describe();
    return opts;
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
 * Run @p run_one on @p params in all four modes, each with its own
 * run context (see beginRun()), print the paper's two figures of the
 * benchmark (the overview under @p overview_title, then the
 * execution-time breakdown under @p breakdown_title), and check the
 * semantic checksum.
 * @return process exit code.
 */
template <typename Params>
int
runFigure(const std::string &overview_title,
          const std::string &breakdown_title,
          apps::RunStats (*run_one)(apps::Mode, const Params &),
          Params params)
{
    const BenchOptions &opts = options();
    harness::ModeResults results;
    std::array<double, apps::allModes.size()> wallMs{};
    std::array<double, apps::allModes.size()> cpuMs{};
    for (std::size_t i = 0; i < apps::allModes.size(); ++i) {
        params.cluster.run = beginRun(apps::modeName(apps::allModes[i]));
        const auto t0 = std::chrono::steady_clock::now();
        const std::clock_t c0 = std::clock();
        results[i] = run_one(apps::allModes[i], params);
        cpuMs[i] = 1e3 * static_cast<double>(std::clock() - c0) /
                   CLOCKS_PER_SEC;
        wallMs[i] = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    }

    harness::printOverview(std::cout, overview_title, results);
    harness::printBreakdown(std::cout, breakdown_title, results);
    harness::printHandlerProfile(std::cout, overview_title, results);

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
        detail::writeStatsJson(opts.statsJsonPath, overview_title);
    if (!opts.latencyReportPath.empty()) {
        std::ofstream out(opts.latencyReportPath);
        if (out)
            harness::printLatencyReport(out, overview_title, results);
        else
            std::cerr << "cannot open latency report file "
                      << opts.latencyReportPath << "\n";
    }
    if (detail::instruments().tracer)
        detail::instruments().tracer->finish();

    if (!harness::checksumsAgree(results)) {
        std::cerr << "CHECKSUM MISMATCH across modes\n";
        harness::printRaw(std::cerr, results);
        return 1;
    }
    std::cout << "checksum: " << results[0].checksum << "\n";
    return 0;
}

} // namespace san::bench

#endif // SAN_BENCH_BENCH_COMMON_HH
