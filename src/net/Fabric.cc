#include "net/Fabric.hh"

#include <algorithm>
#include <cassert>
#include <queue>

#include "obs/Telemetry.hh"

namespace san::net {

Fabric::Fabric(sim::Simulation &sim, const LinkParams &link_params,
               const AdapterParams &adapter_params)
    : sim_(sim), linkParams_(link_params), adapterParams_(adapter_params)
{}

Adapter &
Fabric::addAdapter(const std::string &name)
{
    const NodeId id = nextNode_++;
    adapters_.push_back(
        std::make_unique<Adapter>(sim_, name, id, adapterParams_));
    adapterIndexOf_.emplace(adapters_.back().get(),
                            adapters_.size() - 1);
    adapterHome_.emplace_back(-1, 0u);
    adapterShard_.push_back(0);
    return *adapters_.back();
}

Link &
Fabric::newLink(const std::string &name)
{
    links_.push_back(std::make_unique<Link>(sim_, name, linkParams_));
    return *links_.back();
}

std::size_t
Fabric::switchIndex(const Switch &sw) const
{
    const auto it = switchIndexOf_.find(&sw);
    assert(it != switchIndexOf_.end() &&
           "switch not owned by this fabric");
    return it->second;
}

std::size_t
Fabric::adapterIndex(const Adapter &adapter) const
{
    const auto it = adapterIndexOf_.find(&adapter);
    assert(it != adapterIndexOf_.end() &&
           "adapter not owned by this fabric");
    return it->second;
}

void
Fabric::connect(Switch &sw, unsigned port, Adapter &adapter)
{
    const std::size_t si = switchIndex(sw);
    const std::size_t ai = adapterIndex(adapter);
    Link &to_sw = newLink(adapter.name() + "->" + sw.name());
    linkEnds_.push_back({false, ai, true, si});
    Link &to_ep = newLink(sw.name() + "->" + adapter.name());
    linkEnds_.push_back({true, si, false, ai});
    sw.attachPort(port, to_ep, to_sw);
    adapter.attach(to_sw, to_ep);

    adapterHome_[ai] = {static_cast<int>(si), port};
}

void
Fabric::connectSwitches(Switch &a, unsigned port_a, Switch &b,
                        unsigned port_b)
{
    const std::size_t ia = switchIndex(a);
    const std::size_t ib = switchIndex(b);
    Link &ab = newLink(a.name() + "->" + b.name());
    linkEnds_.push_back({true, ia, true, ib});
    Link &ba = newLink(b.name() + "->" + a.name());
    linkEnds_.push_back({true, ib, true, ia});
    a.attachPort(port_a, ab, ba);
    b.attachPort(port_b, ba, ab);
    switchAdj_[ia][port_a] = {static_cast<int>(ib),
                              static_cast<int>(port_b)};
    switchAdj_[ib][port_b] = {static_cast<int>(ia),
                              static_cast<int>(port_a)};
}

ShardPlan
Fabric::planShards(std::size_t shards) const
{
    const std::size_t n_sw = switches_.size();
    const std::size_t n_ad = adapters_.size();
    const std::size_t units = n_sw + n_ad;
    assert(units > 0 && "plan an empty fabric?");

    ShardPlan plan;
    plan.shards = std::max<std::size_t>(1, std::min(shards, units));
    plan.switchShard.resize(n_sw);
    plan.adapterShard.resize(n_ad);

    if (plan.shards <= n_sw) {
        // The normal cut: contiguous switch blocks, adapters co-
        // located with their home switch so endpoint traffic never
        // crosses.
        for (std::size_t i = 0; i < n_sw; ++i)
            plan.switchShard[i] = i * plan.shards / n_sw;
        for (std::size_t a = 0; a < n_ad; ++a) {
            const int home = adapterHome_[a].first;
            assert(home >= 0 && "adapter never connected");
            plan.adapterShard[a] =
                plan.switchShard[static_cast<std::size_t>(home)];
        }
    } else {
        // Finer than per-switch: spread all units (switches first,
        // then adapters, in creation order) over the shards. With
        // shards == units this is the one-component-per-shard
        // degenerate mode.
        for (std::size_t i = 0; i < n_sw; ++i)
            plan.switchShard[i] = i * plan.shards / units;
        for (std::size_t a = 0; a < n_ad; ++a)
            plan.adapterShard[a] = (n_sw + a) * plan.shards / units;
    }

    for (std::size_t l = 0; l < links_.size(); ++l) {
        const LinkEnds &e = linkEnds_[l];
        const std::size_t src = e.srcIsSwitch
                                    ? plan.switchShard[e.src]
                                    : plan.adapterShard[e.src];
        const std::size_t dst = e.dstIsSwitch
                                    ? plan.switchShard[e.dst]
                                    : plan.adapterShard[e.dst];
        if (src == dst)
            continue;
        ++plan.boundaryLinks;
        plan.lookahead = std::min(plan.lookahead,
                                  links_[l]->params().propagation);
    }
    return plan;
}

void
Fabric::applyShardPlan(const ShardPlan &plan)
{
    assert(plan.switchShard.size() == switches_.size());
    assert(plan.adapterShard.size() == adapters_.size());
    assert(linkEnds_.size() == links_.size());
    assert(plan.lookahead >= 1 &&
           "a zero-latency boundary link leaves no lookahead");

    sim_.enableSharding(plan.shards, plan.lookahead);
    adapterShard_ = plan.adapterShard;
    if (obs::Telemetry *tel = sim_.context().telemetry)
        tel->enableShards(plan.shards);
    for (std::size_t l = 0; l < links_.size(); ++l) {
        const LinkEnds &e = linkEnds_[l];
        const std::size_t src = e.srcIsSwitch
                                    ? plan.switchShard[e.src]
                                    : plan.adapterShard[e.src];
        const std::size_t dst = e.dstIsSwitch
                                    ? plan.switchShard[e.dst]
                                    : plan.adapterShard[e.dst];
        if (src != dst)
            links_[l]->setCrossShard(src, dst);
    }
}

void
Fabric::computeRoutes(RouteSpread spread)
{
    const std::size_t n = switches_.size();

    // Adapters grouped by home switch: each anchor's BFS serves the
    // anchor's own NodeId plus every destination homed there.
    std::vector<std::vector<std::size_t>> by_home(n);
    for (std::size_t a = 0; a < adapters_.size(); ++a) {
        const int home = adapterHome_[a].first;
        assert(home >= 0 && "adapter never connected");
        by_home[static_cast<std::size_t>(home)].push_back(a);
    }

    // For each "anchor" switch t: BFS distances over the switch
    // graph, then, per switch, the ascending list of output ports
    // whose neighbour is one hop closer to t — every equal-cost
    // shortest-path candidate, in deterministic port order.
    std::vector<int> dist(n);
    std::vector<std::vector<unsigned>> cand(n);
    auto towards = [&](std::size_t t) {
        std::fill(dist.begin(), dist.end(), -1);
        std::queue<std::size_t> bfs;
        dist[t] = 0;
        bfs.push(t);
        while (!bfs.empty()) {
            const std::size_t cur = bfs.front();
            bfs.pop();
            for (const auto &[nbr, nbr_port] : switchAdj_[cur]) {
                (void)nbr_port;
                if (nbr < 0 || dist[nbr] >= 0)
                    continue;
                dist[nbr] = dist[cur] + 1;
                bfs.push(static_cast<std::size_t>(nbr));
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            cand[i].clear();
            if (i == t || dist[i] < 0)
                continue;
            for (unsigned p = 0; p < switchAdj_[i].size(); ++p) {
                const int nbr = switchAdj_[i][p].first;
                if (nbr >= 0 && dist[nbr] == dist[i] - 1)
                    cand[i].push_back(p);
            }
        }
    };

    // The tie-break: lowest candidate port, or (DestinationMod)
    // dst mod #candidates into the ascending list — a pure function
    // of (switch, destination), so recomputation is idempotent.
    const auto pick = [spread](const std::vector<unsigned> &c,
                               NodeId dst) {
        return spread == RouteSpread::LowestPort
                   ? c.front()
                   : c[dst % c.size()];
    };

    for (std::size_t t = 0; t < n; ++t) {
        towards(t);
        for (std::size_t i = 0; i < n; ++i) {
            if (i == t || cand[i].empty())
                continue;
            switches_[i]->setRoute(switches_[t]->id(),
                                   pick(cand[i], switches_[t]->id()));
            for (const std::size_t a : by_home[t])
                switches_[i]->setRoute(
                    adapters_[a]->id(),
                    pick(cand[i], adapters_[a]->id()));
        }
        for (const std::size_t a : by_home[t])
            switches_[t]->setRoute(adapters_[a]->id(),
                                   adapterHome_[a].second);
    }
}

} // namespace san::net
