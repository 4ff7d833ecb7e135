#include "harness/Report.hh"

#include <iomanip>
#include <ostream>

namespace san::harness {

using apps::allModes;
using apps::modeName;
using apps::RunStats;

void
printOverview(std::ostream &os, const std::string &title,
              const ModeResults &results)
{
    const double base_time =
        static_cast<double>(results[0].execTime);
    const double base_io =
        static_cast<double>(results[0].hostIoBytes);

    os << "== " << title << " ==\n";
    os << std::left << std::setw(14) << "config" << std::right
       << std::setw(12) << "exec(norm)" << std::setw(12) << "host-util"
       << std::setw(12) << "io(norm)" << std::setw(14) << "exec(ms)"
       << std::setw(14) << "io(bytes)" << '\n';
    os << std::fixed;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunStats &r = results[i];
        os << std::left << std::setw(14) << modeName(allModes[i])
           << std::right << std::setprecision(3) << std::setw(12)
           << (base_time > 0 ? r.execTime / base_time : 0.0)
           << std::setw(12) << r.hostUtilization() << std::setw(12)
           << (base_io > 0 ? r.hostIoBytes / base_io : 0.0)
           << std::setw(14) << std::setprecision(3)
           << san::sim::toMillis(r.execTime) << std::setw(14)
           << r.hostIoBytes << '\n';
    }
    os.unsetf(std::ios::fixed);
}

namespace {

void
printBar(std::ostream &os, const std::string &label,
         const cpu::TimeBreakdown &bd)
{
    const double total = static_cast<double>(bd.total);
    auto frac = [&](san::sim::Tick t) {
        return total > 0 ? static_cast<double>(t) / total : 0.0;
    };
    os << std::left << std::setw(14) << label << std::right
       << std::fixed << std::setprecision(3) << std::setw(10)
       << frac(bd.busy) << std::setw(10) << frac(bd.stall)
       << std::setw(10) << frac(bd.idle()) << '\n';
    os.unsetf(std::ios::fixed);
}

} // namespace

void
printBreakdown(std::ostream &os, const std::string &title,
               const ModeResults &results)
{
    static const char *host_labels[4] = {"n-HP", "n+p-HP", "a-HP",
                                         "a+p-HP"};
    static const char *sp_labels[4] = {"", "", "a-SP", "a+p-SP"};

    os << "== " << title << " (breakdown) ==\n";
    os << std::left << std::setw(14) << "cpu" << std::right
       << std::setw(10) << "busy" << std::setw(10) << "stall"
       << std::setw(10) << "idle" << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunStats &r = results[i];
        for (std::size_t h = 0; h < r.hosts.size(); ++h) {
            std::string label = host_labels[i];
            if (r.hosts.size() > 1)
                label += "#" + std::to_string(h);
            printBar(os, label, r.hosts[h]);
        }
        for (std::size_t s = 0; s < r.switchCpus.size(); ++s) {
            std::string label = sp_labels[i];
            if (r.switchCpus.size() > 1)
                label += "#" + std::to_string(s);
            printBar(os, label, r.switchCpus[s]);
        }
    }
}

void
printHandlerProfile(std::ostream &os, const std::string &title,
                    const ModeResults &results)
{
    bool any = false;
    for (const RunStats &r : results)
        any = any || !r.handlerProfiles.empty();
    if (!any)
        return;

    os << "== " << title << " (handler profile) ==\n";
    os << std::left << std::setw(14) << "config" << std::setw(12)
       << "handler" << std::right << std::setw(8) << "inst"
       << std::setw(10) << "chunks" << std::setw(14) << "bytes"
       << std::setw(14) << "busy-cycles" << std::setw(12) << "cyc/byte"
       << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        for (const auto &p : results[i].handlerProfiles) {
            os << std::left << std::setw(14) << modeName(allModes[i])
               << std::setw(12) << p.name << std::right << std::setw(8)
               << p.invocations << std::setw(10) << p.chunks
               << std::setw(14) << p.bytes << std::setw(14)
               << p.busyCycles << std::fixed << std::setprecision(2)
               << std::setw(12) << p.cyclesPerByte << '\n';
            os.unsetf(std::ios::fixed);
        }
    }
}

namespace {

/** Integer nanoseconds (truncated) — byte-stable across compilers. */
std::uint64_t
toNs(san::sim::Tick t)
{
    return t / 1000;
}

void
printLatencyRow(std::ostream &os, const std::string &label,
                const obs::LatencyHistogram &h)
{
    os << std::left << std::setw(26) << label << std::right
       << std::setw(10) << h.samples() << std::setw(12)
       << toNs(h.percentile(5000)) << std::setw(12)
       << toNs(h.percentile(9000)) << std::setw(12)
       << toNs(h.percentile(9900)) << std::setw(12)
       << toNs(h.percentile(9990)) << std::setw(12) << toNs(h.max())
       << '\n';
}

} // namespace

void
printTelemetryStats(std::ostream &os, const std::string &label,
                    const obs::TelemetryStats &t)
{
    if (!t.active)
        return;
    os << "-- " << label << ": sampleRate " << t.sampleRate
       << ", sampled " << t.recordsSampled << ", delivered "
       << t.recordsDelivered << ", inFlight " << t.recordsInFlight
       << ", retransmits " << t.retransmitsSampled
       << ", stampsDropped " << t.stampsDropped << " --\n";
    os << std::left << std::setw(26) << "class.stage" << std::right
       << std::setw(10) << "samples" << std::setw(12) << "p50(ns)"
       << std::setw(12) << "p90(ns)" << std::setw(12) << "p99(ns)"
       << std::setw(12) << "p99.9(ns)" << std::setw(12)
       << "max(ns)" << '\n';
    const auto row = [&os](const std::string &name,
                           const obs::LatencyHistogram &h) {
        printLatencyRow(os, name, h);
    };
    t.forEachStage(row);
    t.forEachHop(row);
    if (!t.topByVolume.empty()) {
        os << "top flows by volume:\n";
        for (const auto &f : t.topByVolume)
            os << "  " << f.src << "->" << f.dst << " bytes "
               << f.bytes << " maxError " << f.error << '\n';
    }
    if (!t.worstLatency.empty()) {
        os << "worst sampled end-to-end latency:\n";
        for (const auto &f : t.worstLatency)
            os << "  " << f.src << "->" << f.dst << " samples "
               << f.samples << " worst(ns) " << toNs(f.worst)
               << " mean(ns) " << toNs(f.mean) << '\n';
    }
}

void
printLatencyReport(std::ostream &os, const std::string &title,
                   const ModeResults &results)
{
    bool any = false;
    for (const RunStats &r : results)
        any = any || r.telemetry.active;
    if (!any)
        return;

    os << "== " << title << " (latency lineage) ==\n";
    for (std::size_t i = 0; i < results.size(); ++i)
        printTelemetryStats(os, modeName(allModes[i]),
                            results[i].telemetry);
}

bool
checksumsAgree(const ModeResults &results)
{
    for (const RunStats &r : results)
        if (r.checksum != results[0].checksum)
            return false;
    return true;
}

void
printRaw(std::ostream &os, const ModeResults &results)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << modeName(allModes[i]) << ": exec="
           << san::sim::toMillis(results[i].execTime)
           << " ms, checksum=" << results[i].checksum << '\n';
    }
}

} // namespace san::harness
