/**
 * @file
 * Abstract tracing interface hardware models report spans through.
 *
 * Components hold only a Simulation reference, so the tracer hangs
 * off the Simulation: a component emits a span with
 *
 *     if (auto *tr = sim_.tracer())
 *         tr->span("host0.hca", "io", start, end);
 *
 * which costs one predictable null check when tracing is disabled.
 * The concrete exporter (obs::ChromeTracer) lives above the sim
 * layer; this interface keeps sim free of any output format.
 *
 * Tracks are named timelines (one per component, usually); spans are
 * closed intervals of simulated time on a track; instants are
 * zero-width markers; async begin/end pairs bracket logically-scoped
 * operations that interleave on one track (handler instances,
 * outstanding I/O requests), matched by id; counters are sampled
 * values; flow begin/step/end chains are drawn by trace viewers as
 * arrows between the slices they land on (per-packet latency
 * lineage across adapter -> link -> switch -> handler -> destination
 * tracks), matched by id.
 *
 * Every kind is one TraceEvent passed to the one virtual call,
 * emit(); the per-kind calls below only build the event.
 */

#ifndef SAN_SIM_TRACER_HH
#define SAN_SIM_TRACER_HH

#include <cstdint>
#include <string>

#include "sim/Types.hh"

namespace san::sim {

/** What a trace event marks. */
enum class TracePhase : std::uint8_t {
    Span,
    Instant,
    AsyncBegin,
    AsyncEnd,
    Counter,
    FlowBegin,
    FlowStep,
    FlowEnd,
};

/** One model-level trace event. */
struct TraceEvent {
    TracePhase phase;
    /** A string literal by contract: buffered events keep the
     * pointer until they are replayed after the run. */
    const char *name;
    Tick at;              //!< timestamp (a span's start)
    Tick end = 0;         //!< a span's end
    std::uint64_t id = 0; //!< async and flow match id
    double value = 0.0;   //!< counter value
};

/** Receiver of model-level trace events. */
class Tracer
{
  public:
    virtual ~Tracer() = default;

    /** Record @p event on @p track. */
    virtual void emit(const std::string &track, const TraceEvent &event) = 0;

    /** A closed interval [start, end] of work on @p track. */
    void
    span(const std::string &track, const char *name, Tick start, Tick end)
    {
        emit(track, {TracePhase::Span, name, start, end});
    }

    /** A zero-width marker at @p at. */
    void
    instant(const std::string &track, const char *name, Tick at)
    {
        emit(track, {TracePhase::Instant, name, at});
    }

    /** @{ An async operation on @p track, matched by @p id. */
    void
    asyncBegin(const std::string &track, const char *name,
               std::uint64_t id, Tick at)
    {
        emit(track, {TracePhase::AsyncBegin, name, at, 0, id});
    }

    void
    asyncEnd(const std::string &track, const char *name,
             std::uint64_t id, Tick at)
    {
        emit(track, {TracePhase::AsyncEnd, name, at, 0, id});
    }
    /** @} */

    /** A sampled value (utilization, occupancy, rate) at @p at. */
    void
    counter(const std::string &track, const char *name, Tick at,
            double value)
    {
        emit(track, {TracePhase::Counter, name, at, 0, 0, value});
    }

    /** @{ Flow arrows, matched by @p id: flowBegin starts a chain,
     * flowStep continues it, flowEnd terminates it. */
    void
    flowBegin(const std::string &track, const char *name,
              std::uint64_t id, Tick at)
    {
        emit(track, {TracePhase::FlowBegin, name, at, 0, id});
    }

    void
    flowStep(const std::string &track, const char *name,
             std::uint64_t id, Tick at)
    {
        emit(track, {TracePhase::FlowStep, name, at, 0, id});
    }

    void
    flowEnd(const std::string &track, const char *name,
            std::uint64_t id, Tick at)
    {
        emit(track, {TracePhase::FlowEnd, name, at, 0, id});
    }
    /** @} */
};

} // namespace san::sim

#endif // SAN_SIM_TRACER_HH
