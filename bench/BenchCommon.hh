/**
 * @file
 * The bench side of every run. One Bench object per bench process
 * parses the shared flags, owns the output files, and hands each run
 * its instruments through one call, Bench::run(): a fault plan and a
 * telemetry collector built for that run alone, a trace process and
 * a metrics run label named after it, and its wall and CPU time.
 * Each output has one writer here: the perf[...] line, the stats
 * JSON, the latency report, and the trace (closed when the Bench
 * goes). runFigure() drives the per-figure benches: one benchmark
 * across the four configurations, the paper's two figure tables,
 * and a check that the modes agree semantically.
 *
 * Shared flags (README "Observability" lists which bench honours
 * which; a bench that cannot act on one rejects it, Flags::reject):
 *   --quick              smaller problem sizes (per-bench choice)
 *   --stats-json <file>  write per-mode component stats as JSON
 *                        (benches whose runs build an apps::Cluster)
 *   --trace <file>       write a Chrome trace_event file (one trace
 *                        process per run)
 *   --fingerprint        print each run's 64-bit run fingerprint
 *   --metrics-csv <file> write a per-interval utilization time series
 *                        (CSV, or JSONL when the file ends .jsonl;
 *                        apps::Cluster runs only)
 *   --metrics-interval <micros>  sampling interval in simulated
 *                        microseconds (default 100)
 *   --perf               print per-run wall clock and simulator
 *                        throughput (events/sec) lines, consumed by
 *                        tools/perf_baseline
 *   --threads N          run the simulation on N worker threads
 *                        (sharded conservative PDES; DESIGN.md §14).
 *                        N=1 (default) runs the system as one shard,
 *                        byte-identical to earlier releases. Only
 *                        benches whose runs shard accept N > 1; the
 *                        others exit 2 (see Bench). Incompatible
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
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
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

    /** A shared flag the bench cannot act on: giving it exits 2,
     * naming the flag and @p why. Add it before the shared flags, so
     * it claims the name first. */
    Flags &
    reject(const char *name, const char *why)
    {
        const std::string error = std::string(name) + ": " + why;
        entries_.push_back(
            {name, false,
             [error](const char *) -> std::string { fail(error); }});
        return *this;
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

/** Command-line options shared by every bench that takes them. */
struct BenchOptions {
    bool quick = false;
    bool fingerprint = false;
    bool perf = false; //!< print per-run wall clock and events/sec
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

/** Wall-clock and process-CPU milliseconds of one run. */
struct RunTime {
    double wallMs = 0.0;
    double cpuMs = 0.0;
};

/** What one run returned, and how long it took. */
template <typename R>
struct TimedRun {
    R result;
    RunTime time;
};

/**
 * One bench process: the parsed flags, the output files, and the
 * tracer and interval sampler that write them across runs.
 */
class Bench
{
  public:
    /**
     * Parse the shared flags, plus the bench's own @p flags, open the
     * trace and metrics files, and, under --stats-json, hook the
     * stats capture into apps::clusterObserver(). A bench whose runs
     * shard passes @p threaded; every other bench rejects
     * --threads N > 1 rather than silently running one shard.
     */
    Bench(int argc, char **argv, bool threaded = false, Flags flags = {});

    /** Unhooks the stats capture and closes the trace. */
    ~Bench();

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    const BenchOptions &options() const { return opts_; }

    /**
     * Run @p fn as the run labelled @p label and time it, wall and
     * CPU. @p fn receives the run's context: a fault plan and a
     * telemetry collector built for this run alone from the flags
     * (so every run faces the whole fault schedule and samples the
     * same packets, whatever ran before it), and the tracer and
     * sampler, which open a trace process and a metrics run label
     * named @p label.
     */
    template <typename Fn>
    auto
    run(const std::string &label, Fn &&fn)
    {
        const std::unique_ptr<fault::FaultPlan> plan = faultPlan();
        std::optional<obs::Telemetry> telemetry;
        if (opts_.telemetry)
            telemetry.emplace(opts_.telemetrySampleRate);
        if (tracer_)
            tracer_->beginProcess(label);
        if (sampler_)
            sampler_->setRunLabel(label);
        const sim::RunContext context{
            tracer_.get(), sampler_.get(), plan.get(),
            telemetry ? &*telemetry : nullptr};
        const auto t0 = std::chrono::steady_clock::now();
        const std::clock_t c0 = std::clock();
        TimedRun<decltype(fn(context))> out{fn(context), {}};
        out.time.cpuMs = 1e3 * static_cast<double>(std::clock() - c0) /
                         CLOCKS_PER_SEC;
        out.time.wallMs = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        return out;
    }

    /** Under --perf, print the perf[@p label] line of a run that
     * executed @p events kernel events in @p time on @p os. */
    void
    printPerf(std::ostream &os, const std::string &label,
              std::uint64_t events, const RunTime &time) const
    {
        if (!opts_.perf)
            return;
        // events_per_sec divides by process CPU time, not wall time:
        // these runs last milliseconds, so a noisy-neighbor
        // descheduling would otherwise dominate the figure the perf
        // gate compares.
        const double eps =
            time.cpuMs > 0 ? static_cast<double>(events) /
                                 (time.cpuMs / 1e3)
                           : 0.0;
        char line[256];
        std::snprintf(line, sizeof line,
                      "perf[%s]: events=%llu wall_ms=%.3f cpu_ms=%.3f "
                      "events_per_sec=%.0f\n",
                      label.c_str(),
                      static_cast<unsigned long long>(events),
                      time.wallMs, time.cpuMs, eps);
        os << line;
    }

    /** Under --stats-json, write every captured cluster run's stats,
     * one object per mode name in name order, under @p title. */
    void
    writeStatsJson(const std::string &title) const
    {
        if (opts_.statsJsonPath.empty())
            return;
        std::ofstream out(opts_.statsJsonPath);
        if (!out) {
            std::cerr << "cannot open stats file " << opts_.statsJsonPath
                      << "\n";
            return;
        }
        out << "{\n  \"bench\": \"" << title << "\",\n  \"modes\": {";
        const char *separator = "";
        for (const auto &[mode, json] : stats_) {
            out << separator << "\n    \"" << mode << "\": " << json;
            separator = ",";
        }
        out << "\n  }\n}\n";
    }

    /** Under --latency-report, write the report @p render prints. */
    void
    writeLatencyReport(
        const std::function<void(std::ostream &)> &render) const
    {
        if (opts_.latencyReportPath.empty())
            return;
        std::ofstream out(opts_.latencyReportPath);
        if (out)
            render(out);
        else
            std::cerr << "cannot open latency report file "
                      << opts_.latencyReportPath << "\n";
    }

  private:
    /** A fresh plan from the fault flags; null without any. */
    std::unique_ptr<fault::FaultPlan>
    faultPlan() const
    {
        if (opts_.faultSpecs.empty() && opts_.faultEvents.empty())
            return nullptr;
        auto plan = std::make_unique<fault::FaultPlan>(opts_.faultSeed);
        for (const auto &spec : opts_.faultSpecs)
            plan->addSpec(spec);
        for (const auto &event : opts_.faultEvents)
            plan->addEvent(event);
        return plan;
    }

    BenchOptions opts_;
    std::ofstream traceFile_;
    std::unique_ptr<obs::ChromeTracer> tracer_;
    std::ofstream metricsFile_;
    std::unique_ptr<obs::IntervalSampler> sampler_;
    /** Each mode's stats JSON, captured at the end of its cluster run
     * and indented for its place in the stats file. */
    std::map<std::string, std::string> stats_;
};

inline Bench::Bench(int argc, char **argv, bool threaded, Flags flags)
{
    BenchOptions &opts = opts_;
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

    if (!opts.tracePath.empty()) {
        traceFile_.open(opts.tracePath);
        if (traceFile_) {
            tracer_ = std::make_unique<obs::ChromeTracer>(traceFile_);
        } else {
            std::cerr << "cannot open trace file " << opts.tracePath
                      << "\n";
        }
    }

    if (!opts.metricsCsvPath.empty()) {
        metricsFile_.open(opts.metricsCsvPath);
        if (metricsFile_) {
            const bool jsonl =
                opts.metricsCsvPath.size() >= 6 &&
                opts.metricsCsvPath.compare(
                    opts.metricsCsvPath.size() - 6, 6, ".jsonl") == 0;
            sampler_ = std::make_unique<obs::IntervalSampler>(
                metricsFile_, opts.metricsInterval,
                jsonl ? obs::MetricsFormat::Jsonl
                      : obs::MetricsFormat::Csv);
            if (tracer_)
                sampler_->setMirror(tracer_.get());
        } else {
            std::cerr << "cannot open metrics file "
                      << opts.metricsCsvPath << "\n";
        }
    }

    // The stats of a cluster run can only be read while its
    // components are alive, so each mode's object is rendered when
    // its run ends, at the depth it takes in the stats file.
    if (!opts.statsJsonPath.empty()) {
        apps::clusterObserver() = [this](apps::Cluster &cluster,
                                         apps::Mode mode) {
            std::ostringstream oss;
            obs::JsonWriter json(oss, 2, /*depth=*/2);
            harness::dumpClusterStatsJson(json, cluster);
            stats_[apps::modeName(mode)] = oss.str();
        };
    }

    if (const auto plan = faultPlan())
        std::cerr << "fault plan:\n" << plan->describe();
}

inline Bench::~Bench()
{
    if (!opts_.statsJsonPath.empty())
        apps::clusterObserver() = nullptr;
    if (tracer_)
        tracer_->finish();
}

/**
 * Run @p run_one on @p params in all four modes through
 * @p bench.run(), print the paper's two figures of the benchmark
 * (the overview under @p overview_title, then the execution-time
 * breakdown under @p breakdown_title), and check the semantic
 * checksum.
 * @return process exit code.
 */
template <typename Params>
int
runFigure(Bench &bench, const std::string &overview_title,
          const std::string &breakdown_title,
          apps::RunStats (*run_one)(apps::Mode, const Params &),
          Params params)
{
    harness::ModeResults results;
    std::array<RunTime, apps::allModes.size()> times{};
    for (std::size_t i = 0; i < apps::allModes.size(); ++i) {
        const apps::Mode mode = apps::allModes[i];
        auto run = bench.run(apps::modeName(mode),
                             [&](const sim::RunContext &context) {
                                 params.cluster.run = context;
                                 return run_one(mode, params);
                             });
        results[i] = std::move(run.result);
        times[i] = run.time;
    }

    harness::printOverview(std::cout, overview_title, results);
    harness::printBreakdown(std::cout, breakdown_title, results);
    harness::printHandlerProfile(std::cout, overview_title, results);

    if (bench.options().fingerprint)
        for (const auto &r : results)
            std::cout << "fingerprint[" << apps::modeName(r.mode)
                      << "]: 0x" << std::hex << r.fingerprint
                      << std::dec << "\n";
    for (std::size_t i = 0; i < results.size(); ++i)
        bench.printPerf(std::cout, apps::modeName(results[i].mode),
                        results[i].eventsExecuted, times[i]);
    bench.writeStatsJson(overview_title);
    bench.writeLatencyReport([&](std::ostream &os) {
        harness::printLatencyReport(os, overview_title, results);
    });

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
