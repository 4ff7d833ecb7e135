/**
 * @file
 * Switch queueing/arbitration policies.
 *
 * The paper's switch is the IBM Switch-3 central-output-queue design:
 * one FIFO per output port fed straight from the routing stage. That
 * organization is ideal when buffering is unbounded, but any real
 * shared memory is finite, and under a hotspot the shared pool fills
 * with cells for the hot output and head-of-line-blocks every other
 * flow. This file makes the queueing organization a strategy object
 * on net::Switch — the transit-path analogue of the event kernel's
 * BasicEventQueue<Scheduler> policy template — with three policies:
 *
 *  - The paper's central output queue (default). With an unbounded
 *    shared memory it is a pure passthrough that holds no queues and
 *    reproduces the pre-policy switch byte-for-byte (same events in
 *    the same order, so run fingerprints are unchanged). With a
 *    finite `sharedCapacityCells` it models the real Switch-3: cells
 *    beyond the shared capacity stay in input staging with their link
 *    credit withheld — the HOL-blocking baseline.
 *  - VoqIslipPolicy: per-input virtual output queues with iSLIP
 *    request/grant/accept arbitration (Tiny Tera lineage). Grant and
 *    accept pointers advance only on first-iteration accepts, which
 *    desynchronizes the arbiters and gives round-robin policies their
 *    starvation-freedom guarantee.
 *  - CrosspointPolicy: a buffered crossbar (CICQ) with a small
 *    dedicated buffer per (input, output) crosspoint and a per-output
 *    selection discipline.
 *
 * The three buffered organizations (bounded central, VOQ, crosspoint)
 * share one core in SwitchPolicy.cc: per-input staging, admission and
 * occupancy. VOQ and crosspoint also share the (input, output) queue
 * matrix and the service-order pick. Each policy adds only where an
 * admitted cell goes and when an output is served. A switch's policy
 * comes from its SwitchParams::policy and nowhere else.
 *
 * Invariants every policy must keep (tests/net_arbitration_fuzz_test
 * enforces them):
 *
 *  - Conservation: every cell handed to ingress() is eventually
 *    forwarded exactly once; nothing is dropped or duplicated.
 *  - Per-flow order: cells of one (source, destination) flow leave in
 *    the order they arrived. Each flow maps to one (input, output)
 *    pair and every per-pair buffer is a FIFO, so disciplines only
 *    reorder *across* flows.
 *  - Credit-return point: a cell's input-link credit is returned when
 *    the policy accepts the cell into its buffers, not before. A cell
 *    that cannot be buffered waits in input staging with the credit
 *    withheld — that is how backpressure propagates upstream.
 *  - Uncontended latency: a lone cell through an idle switch is
 *    forwarded at its ingress tick under every policy, so one-hop
 *    latency tests hold regardless of the configured policy.
 */

#ifndef SAN_NET_SWITCH_POLICY_HH
#define SAN_NET_SWITCH_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/Packet.hh"
#include "obs/Metrics.hh"
#include "sim/Types.hh"

namespace san::sim {
class Simulation;
}

namespace san::net {

class Switch;

/** Which queueing organization a switch runs. */
enum class SwitchPolicyKind : std::uint8_t {
    CentralOutput, //!< paper's Switch-3 shared-memory output queue
    Voq,           //!< per-input virtual output queues + iSLIP
    Crosspoint,    //!< buffered crossbar (CICQ)
};

/**
 * How an arbitrated policy picks among competing inputs. Only the
 * policies with a real selection step honour it: the central output
 * queue is a single FIFO per output, so arrival order is the only
 * order it can serve.
 */
enum class ServiceOrder : std::uint8_t {
    Fifo,         //!< round-robin across inputs (iSLIP proper)
    OldestFirst,  //!< oldest head-of-queue cell first
    LongestFirst, //!< longest queue first
};

/** Per-switch queueing policy configuration (part of SwitchParams). */
struct SwitchPolicyConfig {
    SwitchPolicyKind kind = SwitchPolicyKind::CentralOutput;
    ServiceOrder order = ServiceOrder::Fifo;
    /** Central policy: shared-memory cells; 0 = unbounded (the
     * paper's idealization, and the byte-identical default). */
    unsigned sharedCapacityCells = 0;
    /** VOQ policy: cells per (input, output) virtual queue. */
    unsigned voqCapacityCells = 1024;
    /** Crosspoint policy: cells per crosspoint buffer. */
    unsigned crosspointCapacityCells = 8;
};

const char *policyKindName(SwitchPolicyKind kind);
const char *serviceOrderName(ServiceOrder order);

/**
 * Parse a policy spec string: `kind[:order]` where kind is one of
 * `central`, `fifo` (central with a 64-cell shared memory — the
 * classic bounded FIFO output queue), `voq`, `crosspoint` (alias
 * `xpoint`), and order is `fifo`, `oldest` or `longest`. Returns
 * nullopt for an unknown kind or order, for a colon with no order
 * after it, and for any order given to `central` or `fifo`, which
 * can only serve in arrival order. Used by the policy-lab benches
 * and examples.
 */
std::optional<SwitchPolicyConfig> parsePolicySpec(std::string_view spec);

/** Cumulative policy counters (exported via metrics and stats). */
struct SwitchPolicyCounters {
    std::uint64_t admitted = 0;   //!< cells accepted into buffers
    std::uint64_t forwarded = 0;  //!< cells handed to an output link
    std::uint64_t holBlocked = 0; //!< cells parked in input staging
    std::uint64_t grants = 0;     //!< arbiter grants issued
    std::uint64_t arbRounds = 0;  //!< arbitration rounds executed
    std::uint64_t peakOccupancy = 0;
};

/**
 * Strategy object owning a switch's transit buffering, arbitration
 * and egress scheduling. The switch hands every transit cell (and
 * every locally injected packet) to ingress() after the routing
 * stage; from then on the policy owns the cell until it calls
 * forward(). Local deliveries (packets addressed to the switch) never
 * enter the policy: they are consumed at the routing stage exactly as
 * before.
 */
class QueueingPolicy
{
  public:
    explicit QueueingPolicy(Switch &sw);
    virtual ~QueueingPolicy() = default;

    QueueingPolicy(const QueueingPolicy &) = delete;
    QueueingPolicy &operator=(const QueueingPolicy &) = delete;

    virtual const char *name() const = 0;

    /**
     * True for the zero-state default: the unbounded central output
     * queue, which adds no events, no gauges and no stats keys, so
     * default runs stay byte-identical to the pre-policy simulator.
     */
    virtual bool isPassthrough() const { return false; }

    /**
     * One cell leaves the routing stage. @p in_port is the arrival
     * port, or localPort() for packets injected by the switch itself
     * (Send unit, retransmits); @p out_port is the routed output.
     * The policy decides when the input credit goes back and when
     * the cell reaches the output link.
     */
    virtual void ingress(unsigned in_port, unsigned out_port,
                         Arrival &&arrival) = 0;

    /** Cells buffered inside the policy right now. */
    virtual std::size_t occupancy() const = 0;

    /** Cells held in input staging with their credit withheld. */
    virtual std::size_t stagedCells() const { return 0; }

    /**
     * Largest number of arbitration rounds any input spent eligible
     * (free, with buffered cells) but unserved. Bounded for the
     * round-robin VOQ arbiter — the starvation-freedom property the
     * fuzz suite asserts. Zero for policies without rounds.
     */
    virtual std::uint64_t maxGrantWaitRounds() const { return 0; }

    const SwitchPolicyCounters &counters() const { return counters_; }

    /** Wire bytes forwarded that arrived on @p in_port. */
    std::uint64_t forwardedBytesFrom(unsigned in_port) const;

    /**
     * Register this policy's gauges under @p prefix: occupancy and
     * staging depth, plus forward/grant/HOL-block rates. Also calls
     * registerDetailMetrics() so structured policies expose their
     * per-port buffer occupancies.
     */
    void registerMetrics(obs::MetricsRegistry &m,
                         const std::string &prefix) const;

    /**
     * Per-port buffer gauges, named after the owning switch: the VOQ
     * policy registers `<switch>.voq.in<i>` (cells buffered per
     * input) and the crosspoint policy `<switch>.xpoint.out<o>`
     * (cells per output column), so --metrics-csv timelines show
     * *where* a structured fabric's backlog sits, not just its
     * total. Default: nothing (central policies have only the shared
     * occupancy already registered).
     */
    virtual void
    registerDetailMetrics(obs::MetricsRegistry &m) const
    {
        (void)m;
    }

    /**
     * Called by Switch::attachPort once @p port's links exist.
     * Installs the policy's credit observer on the new output link
     * (policies are built before any wiring, so constructors cannot).
     */
    void portAttached(unsigned port);

  protected:
    /** A buffered cell: the packet plus arbitration bookkeeping. */
    struct Cell {
        Packet pkt;
        sim::Tick enqueuedAt = 0; //!< ingress tick (OldestFirst key)
        unsigned in = 0;          //!< arrival port (or localPort())
        unsigned out = 0;         //!< routed output port
    };

    /** Ports on the switch (outputs, and real inputs). */
    unsigned portCount() const;
    /** Inputs including the local injection port (portCount() + 1). */
    unsigned inputCount() const;
    /** The virtual input index of locally injected packets. */
    unsigned localPort() const { return portCount(); }

    /**
     * Return the input link credit of a cell accepted from
     * @p in_port. No-op for localPort(): injections consume no link
     * credit.
     */
    void creditReturn(unsigned in_port);

    /** Hand a cell that arrived on @p in_port to output @p out_port's
     * link, updating the forward counters. */
    void forward(unsigned in_port, unsigned out_port, Packet &&pkt);

    /** Serialization time of @p pkt on output @p out_port's link. */
    sim::Tick serialization(unsigned out_port, const Packet &pkt) const;

    /**
     * Output @p out_port's link can put a cell on the wire right now
     * (a transmit credit is available). Paced policies check this
     * before granting so a credit-starved downstream hop backpressures
     * into the policy's buffers instead of the link's internal queue.
     */
    bool outputReady(unsigned out_port) const;

    /**
     * Ask the output links (including ones wired later) to call
     * @p fn whenever one of their credits comes back: the wakeup a
     * paced policy needs to resume a grant loop that stalled on
     * downstream backpressure.
     */
    void observeOutputCredits(std::function<void()> fn);

    sim::Simulation &simulation() const;

    Switch &sw_;
    SwitchPolicyCounters counters_;

  private:
    std::vector<std::uint64_t> fwdBytesFrom_; //!< per input
    std::function<void()> creditObserver_;    //!< set on output links
};

/** Build the policy object @p cfg describes, bound to @p sw. */
std::unique_ptr<QueueingPolicy>
makeQueueingPolicy(Switch &sw, const SwitchPolicyConfig &cfg);

} // namespace san::net

#endif // SAN_NET_SWITCH_POLICY_HH
