/**
 * @file
 * The million-flow load-balancer workload: cluster shape, traffic,
 * drains, and stats collection for bench/lb_scale, the examples and
 * the tests.
 *
 * Topology (hosts around one active switch, no storage):
 *
 *   host[0 .. senders)                the clients (flow-churn pumps)
 *   host[senders .. senders+backends) the server pool
 *   host[senders+backends]            the lb host: runs the software
 *                                     balancer in Normal mode, and
 *                                     receives punts in Active mode
 *
 * In Active mode the balancer is registered as switch handler
 * kLbHandlerId and every client packet is an active message; the lb
 * host only sees what the switch could not place. In Normal mode the
 * same packets are plain sends to the lb host, which runs the same
 * balancer state machine on its own CPU — the paper's host-only
 * baseline.
 */

#ifndef SAN_LB_LB_WORKLOAD_HH
#define SAN_LB_LB_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <vector>

#include "apps/Cluster.hh"
#include "lb/LoadBalancer.hh"
#include "net/Traffic.hh"

namespace san::lb {

/** The handler-table slot the balancer occupies in Active mode. */
inline constexpr std::uint8_t kLbHandlerId = 9;

struct LbWorkloadParams {
    unsigned senders = 4;
    unsigned backends = 8;
    unsigned switchCpus = 4;
    /** Flow pattern. dst / active / handlerId / handlerCpus are
     * overwritten by the workload; set the rest freely. */
    net::FlowChurnParams churn{};
    /** Balancer tuning. `backends` and `tupleSeed` are overwritten
     * to match the topology and the churn generator. */
    LbParams lb{};
    /** Application service charged per delivered packet at a backend
     * (identical in both modes, so the host-CPU delta between modes
     * isolates the balancing work itself). */
    std::uint64_t backendServiceInstructions = 60;
    /** Record per-flow delivery backends (tests only: costs memory
     * proportional to flow count). */
    bool recordDeliveries = false;
    unsigned switchPorts = 0; //!< 0 = hosts + 1
    /** The run's instruments; a fault plan's backend-down/up events
     *  drive the balancer's pool. */
    sim::RunContext run{};
};

struct LbRunResult {
    apps::RunStats stats;
    net::FlowChurnCounts gen;
    /** Packets each backend host actually received. */
    std::vector<std::uint64_t> backendDelivered;
    /** Punted packets the lb host received (Active mode; in Normal
     * mode punts are serviced in place and this stays 0). */
    std::uint64_t puntArrivals = 0;
    /** flowId -> bitmask of backends that delivered its packets
     * (recordDeliveries only). One bit per flow unless the flow
     * migrated across a backend-down event. */
    std::map<std::uint64_t, std::uint64_t> deliveredBy;
};

/** Build the cluster, run one mode to completion, collect stats.
 * Uses Mode::Active (in-switch) and Mode::Normal (host baseline). */
LbRunResult runLb(apps::Mode mode, const LbWorkloadParams &params);

} // namespace san::lb

#endif // SAN_LB_LB_WORKLOAD_HH
