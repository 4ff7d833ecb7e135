/**
 * @file
 * The L4 load balancer: connection table + consistent hashing +
 * punt-path policy, runnable either as an ActiveSwitch handler (the
 * in-switch data plane) or as a host drain (the host-only baseline).
 *
 * Both paths share one processPacket() state machine, so hit/miss
 * decisions, backend assignments and counters are bit-identical —
 * the modes differ only in *where* the cycles are charged: the
 * 500 MHz switch CPU with its 1 KB D$, or the 2 GHz host CPU. Every
 * packet's memory traffic is described by the returned Action and
 * charged through the respective CPU's hierarchy at the connection
 * table's model addresses.
 *
 * Packet semantics ride in the message tag (net::flowTag): SYN
 * inserts a connection and picks its backend through the Maglev
 * table, DATA looks it up and forwards to the sticky backend, FIN
 * forwards then retires the entry. Unknown connections (orphans,
 * probe-cap insert failures, no-alive-backend) punt to a designated
 * host. Backend death/rebirth arrives through the fault layer
 * ("--fault-at TICK:backend-down:IDX"), polled deterministically at
 * each packet; dead backends' established flows lazily migrate via
 * a fresh Maglev pick at their next packet.
 */

#ifndef SAN_LB_LOAD_BALANCER_HH
#define SAN_LB_LOAD_BALANCER_HH

#include <cstdint>
#include <vector>

#include "active/ActiveSwitch.hh"
#include "apps/RunConfig.hh"
#include "lb/ConnTable.hh"
#include "lb/Maglev.hh"
#include "net/Traffic.hh"

namespace san::host {
class Host;
}

namespace san::lb {

/** Load-balancer configuration. */
struct LbParams {
    unsigned backends = 8;
    /** Must match the traffic generator's FlowChurnParams::seed. */
    std::uint64_t tupleSeed = 1;
    /** Connection-signature seed (apps::detTupleHash). */
    std::uint64_t hashSeed = 0x1b5eedull;
    ConnTable::Params table{};
    unsigned maglevSize = Maglev::kDefaultSize;
    /** I$ footprint of the per-packet fast path. */
    std::uint64_t codeBytes = 768;
    /** Decode + tuple hash + steering, instructions per packet. */
    std::uint64_t instructions = 48;
    /** Host-side software overhead per packet (interrupt/demux) the
     * baseline pays on top; the switch's Dispatch unit does this in
     * hardware. */
    std::uint64_t hostExtraInstructions = 120;
    /** Host-side service of one punted (unknown) connection. */
    std::uint64_t puntInstructions = 800;
};

class LoadBalancer
{
  public:
    /** Model PC of the handler's code (distinct I$ region). */
    static constexpr std::uint64_t kCodeAddr = 0x8000;

    /** @p faults (null: none) schedules backend-down/up events. */
    LoadBalancer(const LbParams &params,
                 std::vector<net::NodeId> backend_nodes,
                 net::NodeId punt_node, fault::FaultPlan *faults);

    /** One charged memory operation of a packet's table work. */
    struct MemOp {
        std::uint64_t addr = 0;
        std::uint32_t bytes = 0;
        mem::AccessKind kind = mem::AccessKind::Load;
    };

    /** The routing decision plus the memory traffic to charge. */
    struct Action {
        bool punt = false;
        std::uint8_t backend = 0;
        unsigned opCount = 0;
        MemOp ops[6];

        void
        add(std::uint64_t addr, std::uint32_t bytes,
            mem::AccessKind kind)
        {
            ops[opCount++] = MemOp{addr, bytes, kind};
        }
    };

    /**
     * Advance the balancer by one packet: poll backend up/down fault
     * events, run the two-stage lookup state machine, update every
     * counter. Pure simulation state — the caller charges the
     * returned Action through its CPU and moves the packet.
     */
    Action processPacket(std::uint32_t tag, sim::Tick now);

    /** The in-switch data plane (register under a handler id). */
    active::HandlerFn makeHandler();

    /** The host-only baseline: drain @p lb_host's app queue, charge
     * the same table work to its CPU, forward via its HCA. */
    sim::Task hostDrain(host::Host &lb_host);

    void fillStats(apps::LbStats &out) const;

    const apps::LbStats &counters() const { return counters_; }
    const ConnTable &table() const { return table_; }
    const Maglev &maglev() const { return maglev_; }
    const LbParams &params() const { return params_; }
    net::NodeId backendNode(unsigned b) const
    {
        return backendNodes_.at(b);
    }
    net::NodeId puntNode() const { return puntNode_; }

  private:
    sim::Task handlerBody(active::HandlerContext &ctx);
    void pollFaultEvents(sim::Tick now);

    void
    forward(Action &act, std::uint8_t backend)
    {
        act.punt = false;
        act.backend = backend;
        ++counters_.forwarded;
        ++counters_.backendPackets[backend];
    }

    void
    punt(Action &act)
    {
        act.punt = true;
        ++counters_.punts;
    }

    LbParams params_;
    std::vector<net::NodeId> backendNodes_;
    net::NodeId puntNode_;
    ConnTable table_;
    Maglev maglev_;
    apps::LbStats counters_;
    fault::FaultPlan *faults_;
};

/**
 * The balancer driving the current run, or nullptr (the default).
 * Installed by the lb workload for the duration of a run so the
 * stats report and metrics sampler can export lb state; when null,
 * reports are byte-identical to pre-lb output.
 */
LoadBalancer *&globalBalancer();

} // namespace san::lb

#endif // SAN_LB_LOAD_BALANCER_HH
