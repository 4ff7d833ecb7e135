/**
 * @file
 * Fabric: owns switches, adapters and links, wires topologies and
 * computes shortest-path routing tables.
 */

#ifndef SAN_NET_FABRIC_HH
#define SAN_NET_FABRIC_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/Adapter.hh"
#include "net/Link.hh"
#include "net/Packet.hh"
#include "net/Switch.hh"
#include "sim/Simulation.hh"

namespace san::net {

/**
 * A deterministic partition of a fabric's components into logical-
 * process shards for the parallel kernel (sim/Simulation.hh). Computed by
 * Fabric::planShards from the topology alone — never from the
 * thread count — so the same build always yields the same cut, and
 * N-thread fingerprints are stable across N.
 */
struct ShardPlan {
    std::size_t shards = 1;
    /** Shard of each switch, by creation index. */
    std::vector<std::size_t> switchShard;
    /** Shard of each adapter, by creation index. */
    std::vector<std::size_t> adapterShard;
    /**
     * Conservative lookahead: the minimum propagation latency over
     * all boundary (shard-crossing) links. maxTick when no link
     * crosses (degenerate single-shard plan).
     */
    sim::Tick lookahead = sim::maxTick;
    /** Number of links whose endpoints land on different shards. */
    std::size_t boundaryLinks = 0;
};

/**
 * A complete SAN: the container for every network component of one
 * simulated system.
 */
class Fabric
{
  public:
    explicit Fabric(sim::Simulation &sim, const LinkParams &link_params = {},
                    const AdapterParams &adapter_params = {});

    /**
     * Create a switch of type @p S (Switch or a subclass such as
     * ActiveSwitch). Extra constructor arguments follow the params.
     */
    template <typename S = Switch, typename... Extra>
    S &
    addSwitch(const SwitchParams &params, Extra &&...extra)
    {
        const NodeId id = nextNode_++;
        auto sw = std::make_unique<S>(
            sim_, "switch" + std::to_string(switches_.size()), id, params,
            std::forward<Extra>(extra)...);
        S &ref = *sw;
        switchAdj_.emplace_back(params.ports,
                                std::pair<int, int>{-1, -1});
        // Index cached at creation: connect/connectSwitches resolve
        // a switch in O(1), so wiring an n-switch fabric is linear.
        switchIndexOf_.emplace(&ref, switches_.size());
        switches_.push_back(std::move(sw));
        return ref;
    }

    /** Create an endpoint adapter (HCA or TCA). */
    Adapter &addAdapter(const std::string &name);

    /** Wire @p adapter to @p port of @p sw with a pair of links. */
    void connect(Switch &sw, unsigned port, Adapter &adapter);

    /** Wire two switches together. */
    void connectSwitches(Switch &a, unsigned port_a, Switch &b,
                         unsigned port_b);

    /**
     * Populate every switch's routing table (call after wiring).
     * Shortest paths come from a per-anchor BFS. Equal-cost ties
     * spread ECMP-style: with the candidate ports sorted ascending,
     * destination d takes candidate d mod #candidates, so a fat-tree
     * load-balances its core, and a single-path topology (one
     * switch, a tree) takes its only candidate. A pure function of
     * (switch, destination), independent of wiring order: recomputing
     * overwrites every route with the same values.
     */
    void computeRoutes();

    /**
     * Partition the component graph into (up to) @p shards logical
     * processes. Switches are cut into contiguous creation-order
     * blocks and each adapter follows its home switch, so the
     * hot intra-node traffic (adapter <-> home switch) stays
     * shard-local and only inter-switch cables cross. Asking for
     * more shards than there are switches spreads every component —
     * switches first, then adapters — across its own block instead
     * (the degenerate one-component-per-shard mode the stress test
     * exercises). The result depends only on the topology and
     * @p shards, never on the thread count.
     */
    ShardPlan planShards(std::size_t shards) const;

    /**
     * Partition the simulation per @p plan: sets its shard count and
     * lookahead, marks every boundary link cross-shard, and gives an
     * installed obs::Telemetry one slice per shard. Call after wiring
     * and computeRoutes(), before any event is scheduled.
     */
    void applyShardPlan(const ShardPlan &plan);

    /** Creation index of @p adapter (for ShardPlan lookups). */
    std::size_t adapterIndex(const Adapter &adapter) const;

    /** Shard @p adapter lives on: its plan entry, 0 before any plan. */
    std::size_t
    shardOf(const Adapter &adapter) const
    {
        return adapterShard_[adapterIndex(adapter)];
    }

    sim::Simulation &sim() { return sim_; }
    unsigned mtu() const { return adapterParams_.mtu; }
    const std::vector<std::unique_ptr<Switch>> &switches() const
    {
        return switches_;
    }
    const std::vector<std::unique_ptr<Adapter>> &adapters() const
    {
        return adapters_;
    }
    const std::vector<std::unique_ptr<Link>> &links() const
    {
        return links_;
    }

  private:
    std::size_t switchIndex(const Switch &sw) const;
    Link &newLink(std::string name);

    sim::Simulation &sim_;
    LinkParams linkParams_;
    AdapterParams adapterParams_;
    NodeId nextNode_ = 0;

    std::vector<std::unique_ptr<Switch>> switches_;
    std::vector<std::unique_ptr<Adapter>> adapters_;
    std::vector<std::unique_ptr<Link>> links_;

    /** Per switch, per port: (neighbor switch index, its port), or
     * (-1,-1) when unused / endpoint-facing. */
    std::vector<std::vector<std::pair<int, int>>> switchAdj_;
    /** Per adapter: (home switch index, port). */
    std::vector<std::pair<int, unsigned>> adapterHome_;
    /** Per adapter: its shard under the applied plan. */
    std::vector<std::size_t> adapterShard_;
    /** Per link (parallel to links_): sender and receiver, each a
     * switch or an adapter. Filled by connect/connectSwitches; the
     * shard planner walks it to find boundary links. */
    struct LinkEnds {
        bool srcIsSwitch;
        std::size_t src;
        bool dstIsSwitch;
        std::size_t dst;
    };
    std::vector<LinkEnds> linkEnds_;
    /** @{ Creation-time indices: wiring never scans the owner
     * vectors (a 1k-switch fat-tree builds in linear time). */
    std::unordered_map<const Switch *, std::size_t> switchIndexOf_;
    std::unordered_map<const Adapter *, std::size_t> adapterIndexOf_;
    /** @} */
};

} // namespace san::net

#endif // SAN_NET_FABRIC_HH
