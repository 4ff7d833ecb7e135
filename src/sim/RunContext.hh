/**
 * @file
 * The instruments one simulation run reports to.
 *
 * Benchmarks pick their instrumentation on the command line (trace,
 * interval metrics, fault plan, packet telemetry), but build their
 * simulated systems deep inside per-app run functions. A RunContext
 * carries that choice from the bench to the run: it is handed to the
 * sim::Simulation when the run is built, and every component reads
 * it through the Simulation reference it already holds. Two runs in
 * one process can therefore carry different instruments, side by
 * side.
 *
 * Every pointer is non-owning and null by default; null means the
 * instrument is off, so each hook stays one predictable branch. The
 * context is fixed for the life of the Simulation, so components may
 * cache a pointer when they are constructed.
 */

#ifndef SAN_SIM_RUN_CONTEXT_HH
#define SAN_SIM_RUN_CONTEXT_HH

namespace san::obs {
class IntervalSampler;
class Telemetry;
} // namespace san::obs

namespace san::fault {
class FaultPlan;
} // namespace san::fault

namespace san::sim {

class Tracer;

struct RunContext {
    /** Span exporter (--trace). */
    Tracer *tracer = nullptr;
    /** Interval time series (--metrics-csv): apps::Cluster registers
     *  its gauges with it and attaches it to the event queue. */
    obs::IntervalSampler *sampler = nullptr;
    /** Faults to inject, which also arms the recovery protocol. */
    fault::FaultPlan *faults = nullptr;
    /** Packet-lineage collector (--telemetry). */
    obs::Telemetry *telemetry = nullptr;
};

} // namespace san::sim

#endif // SAN_SIM_RUN_CONTEXT_HH
