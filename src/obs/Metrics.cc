#include "obs/Metrics.hh"

#include <cassert>
#include <ostream>
#include <stdexcept>

#include "obs/Json.hh"

namespace san::obs {

void
registerKernelGauges(MetricsRegistry &m, const sim::EventQueue &events)
{
    m.add("sim.pending", GaugeKind::Gauge, [&events] {
        return static_cast<double>(events.size());
    });
    m.add("sim.horizon", GaugeKind::Gauge, [&events] {
        const sim::Tick next = events.nextEventTick();
        if (next == sim::maxTick)
            return 0.0;
        return static_cast<double>(next - events.now());
    });
    const auto &sched = events.scheduler();
    m.add("sim.ladder.drain", GaugeKind::Gauge, [&sched] {
        return static_cast<double>(sched.drainEvents());
    });
    m.add("sim.ladder.bucketed", GaugeKind::Gauge, [&sched] {
        return static_cast<double>(sched.bucketedEvents());
    });
    m.add("sim.ladder.spill", GaugeKind::Gauge, [&sched] {
        return static_cast<double>(sched.spillEvents());
    });
    m.add("sim.ladder.width_ps", GaugeKind::Gauge, [&sched] {
        return static_cast<double>(sched.bucketWidth());
    });
}

void
MetricsRegistry::add(std::string name, GaugeKind kind, Sample fn)
{
    for (const Entry &e : entries_)
        if (e.name == name)
            throw std::invalid_argument("duplicate gauge name: " + name);
    entries_.push_back(Entry{std::move(name), kind, std::move(fn)});
}

IntervalSampler::IntervalSampler(std::ostream &os, sim::Tick interval,
                                 MetricsFormat format)
    : os_(os), interval_(interval), format_(format)
{
    assert(interval_ > 0 && "metrics interval must be positive");
}

void
IntervalSampler::attach(sim::EventQueue &events)
{
    events_ = &events;
    inner_ = events.observer();
    events.setObserver(this);
    nextSample_ = 0;
    prevRow_ = 0;
    anyRowThisRun_ = false;
    for (auto &e : registry_.entries())
        e.prev = 0.0;
}

void
IntervalSampler::onEvent(sim::Tick when, std::uint64_t seq)
{
    // Counters only move inside event callbacks, so the current gauge
    // values ARE the state at every boundary in (last event, when].
    while (when >= nextSample_) {
        row(nextSample_);
        nextSample_ += interval_;
    }
    if (inner_)
        inner_->onEvent(when, seq);
}

void
IntervalSampler::finishRun(sim::Tick end)
{
    if (!events_)
        return;
    while (end >= nextSample_) {
        row(nextSample_);
        nextSample_ += interval_;
    }
    // A run ending mid-interval still deserves its tail: one partial
    // row at the end tick (unless a boundary row landed exactly there).
    if (!anyRowThisRun_ || prevRow_ < end)
        row(end);
    os_.flush();
    events_->setObserver(inner_);
    events_ = nullptr;
    inner_ = nullptr;
}

void
IntervalSampler::writeHeaderIfNeeded()
{
    if (format_ != MetricsFormat::Csv)
        return;
    std::vector<std::string> names;
    names.reserve(registry_.size());
    for (const auto &e : registry_.entries())
        names.push_back(e.name);
    if (names == headerNames_)
        return;
    headerNames_ = std::move(names);
    os_ << "run,time_ps";
    for (const std::string &n : headerNames_)
        os_ << ',' << n;
    os_ << '\n';
}

void
IntervalSampler::row(sim::Tick at)
{
    writeHeaderIfNeeded();
    const sim::Tick elapsed = anyRowThisRun_ ? at - prevRow_ : at;
    if (format_ == MetricsFormat::Csv) {
        os_ << runLabel_ << ',' << at;
    } else {
        os_ << "{\"run\":\"" << runLabel_ << "\",\"time_ps\":" << at;
    }
    for (auto &e : registry_.entries()) {
        const double raw = e.fn();
        double out = 0.0;
        switch (e.kind) {
          case GaugeKind::Gauge:
            out = raw;
            break;
          case GaugeKind::Rate:
            out = raw - e.prev;
            break;
          case GaugeKind::TimeShare:
            out = elapsed > 0
                      ? (raw - e.prev) / static_cast<double>(elapsed)
                      : 0.0;
            break;
          case GaugeKind::IdleShare:
            out = elapsed > 0
                      ? 1.0 -
                            (raw - e.prev) / static_cast<double>(elapsed)
                      : 0.0;
            break;
        }
        e.prev = raw;
        if (format_ == MetricsFormat::Csv) {
            os_ << ',';
        } else {
            os_ << ",\"" << e.name << "\":";
        }
        JsonWriter::writeNumber(os_, out);
        if (mirror_)
            mirror_->counter("metrics", e.name.c_str(), at, out);
    }
    if (format_ == MetricsFormat::Jsonl)
        os_ << '}';
    os_ << '\n';
    prevRow_ = at;
    anyRowThisRun_ = true;
    ++rows_;
}

} // namespace san::obs
