/**
 * @file
 * An N-port SAN switch (the non-active baseline).
 *
 * Modelled after the central-output-queue organization of the IBM
 * Switch-3 the paper references: packets arriving on an input port
 * are routed after a fixed routing latency (100 ns) and then handed
 * to the switch's queueing policy (see net/SwitchPolicy.hh), which
 * owns buffering, arbitration and the credit-return point. The
 * default policy is the paper's central output queue and reproduces
 * the pre-policy switch byte-for-byte; a bounded central queue,
 * per-input VOQ + iSLIP and crosspoint-buffered organizations are
 * selectable per switch through SwitchParams::policy, the only place
 * a switch's policy comes from. Packets addressed to the switch
 * itself never enter the policy: they are handed to deliverLocal(),
 * which the active switch overrides.
 */

#ifndef SAN_NET_SWITCH_HH
#define SAN_NET_SWITCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/Link.hh"
#include "net/Packet.hh"
#include "net/RouteTable.hh"
#include "net/SwitchPolicy.hh"
#include "sim/Simulation.hh"

namespace san::net {

/** Switch configuration. */
struct SwitchParams {
    unsigned ports = 8;
    sim::Tick routingLatency = sim::ns(100); //!< paper: 100 ns
    /** Queueing/arbitration organization; default is the paper's
     * central output queue (fingerprint-identical passthrough). */
    SwitchPolicyConfig policy{};
};

/** A conventional cut-through SAN switch. */
class Switch
{
  public:
    Switch(sim::Simulation &sim, std::string name, NodeId id,
           const SwitchParams &params);
    virtual ~Switch() = default;

    Switch(const Switch &) = delete;
    Switch &operator=(const Switch &) = delete;

    NodeId id() const { return id_; }
    const std::string &name() const { return name_; }
    const SwitchParams &params() const { return params_; }
    sim::Simulation &sim() { return sim_; }

    /**
     * Wire port @p port: @p out carries traffic away from this
     * switch, @p in delivers traffic to it (its sink is captured).
     * @throws std::out_of_range for a port beyond params().ports and
     * std::logic_error if the port is already wired — silent
     * re-wiring would leave the old links' sinks dangling.
     */
    void attachPort(unsigned port, Link &out, Link &in);

    /**
     * Install/overwrite the route for destination @p dst.
     * @throws std::out_of_range for a port beyond params().ports.
     */
    void setRoute(NodeId dst, unsigned port);

    /** Size the routing table for @p destinations routes at once. */
    void
    reserveRoutes(std::size_t destinations)
    {
        routes_.reserve(destinations);
    }

    /** Look up the output port for @p dst (asserts it exists). */
    unsigned route(NodeId dst) const;
    bool hasRoute(NodeId dst) const;
    /** Destinations this switch has a route for. */
    std::size_t routeCount() const { return routes_.size(); }

    /**
     * Inject a locally-generated packet (management traffic; the
     * active switch's Send unit and retransmit engine use this).
     * Uses the routing table, then egresses through the queueing
     * policy like any transit cell.
     */
    void inject(Packet pkt);

    /** The queueing policy owning this switch's transit buffers. */
    QueueingPolicy &policy() { return *policy_; }
    const QueueingPolicy &policy() const { return *policy_; }

    /** The out/in links of @p port (nullptr while unwired). */
    Link *outLink(unsigned port) const { return ports_[port].out; }
    Link *inLink(unsigned port) const { return ports_[port].in; }

    /**
     * Register the switch's transit-path gauges. Only non-default
     * policies add columns (occupancy, staging, grant/HOL rates):
     * the stock central queue keeps metrics timelines byte-identical
     * to the pre-policy harness.
     */
    void registerMetrics(obs::MetricsRegistry &m) const;

    std::uint64_t packetsRouted() const { return routed_; }
    std::uint64_t packetsLocal() const { return local_; }

  protected:
    /**
     * A packet addressed to this switch arrived (already past the
     * routing stage). The base switch has no consumer: it counts and
     * drops, which keeps management traffic harmless. The arrival is
     * handed over by value so the active switch can move it into its
     * dispatch pipeline without copying the packet.
     */
    virtual void deliverLocal(Arrival &&arrival);

    sim::Simulation &sim_;

  private:
    void receive(unsigned port, Arrival &&arrival);

    std::string name_;
    NodeId id_;
    SwitchParams params_;

    struct PortWiring {
        Link *out = nullptr;
        Link *in = nullptr;
    };
    std::vector<PortWiring> ports_;
    RouteTable routes_; //!< dst -> port, O(1) at any fabric size

    /** Built last: policies read params_/ports_ via the switch. */
    std::unique_ptr<QueueingPolicy> policy_;

    std::uint64_t routed_ = 0;
    std::uint64_t local_ = 0;
};

} // namespace san::net

#endif // SAN_NET_SWITCH_HH
