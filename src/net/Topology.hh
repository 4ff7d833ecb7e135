/**
 * @file
 * Multi-switch fabric topology builders: k-ary fat-tree and
 * dragonfly.
 *
 * Both builders are thin, deterministic wiring recipes over the
 * Fabric primitives (addSwitch / addAdapter / connectSwitches /
 * connect / computeRoutes): they create every switch and host in a
 * fixed order, wire a fixed port map, and finish with the route
 * computation, whose equal-cost spread makes the redundant shortest
 * paths multipath fabrics exist for actually carry traffic. The
 * returned Topology records the layer structure (edge / aggregation
 * / core, host group ids) that handler-placement experiments and
 * group-local traffic patterns need.
 *
 * Fat-tree (k even): the classic three-stage Clos of the CODES/ROSS
 * fattree model — k pods, each with k/2 edge and k/2 aggregation
 * k-port switches, (k/2)^2 core switches, k/2 hosts per edge switch:
 * k^3/4 hosts total (k=4 -> 16, k=8 -> 128). Port map, with m = k/2:
 * edge ports [0,m) face hosts, [m,k) face the pod's aggregation
 * switches; aggregation ports [0,m) face edges, port m+j faces core
 * a*m+j (a = the switch's index in its pod); core c's port x faces
 * pod x.
 *
 * Dragonfly (a routers per group, p hosts per router, h global links
 * per router): the balanced a*h+1-group configuration of the
 * Kim/Dally dragonfly — each group a complete local graph, exactly
 * one global link between every pair of groups (consecutive
 * arrangement: the channel between groups G < G' is local channel
 * G'-G-1 of G and g-(G'-G)-1 of G'; channel c lives on router c/h,
 * slot c%h). Router ports: [0,p) hosts, [p,p+a-1) local peers in
 * index order (own index skipped), [p+a-1,p+a-1+h) global. Hosts
 * total a*p*(a*h+1).
 */

#ifndef SAN_NET_TOPOLOGY_HH
#define SAN_NET_TOPOLOGY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "net/Fabric.hh"

namespace san::net {

/** Fat-tree shape. @p k must be even and >= 2. */
struct FatTreeParams {
    unsigned k = 4;
    /** Base switch configuration; ports is overridden to k. */
    SwitchParams switchParams{};
};

/** Dragonfly shape (balanced: groups = a*h + 1). */
struct DragonflyParams {
    unsigned routersPerGroup = 4; //!< a
    unsigned hostsPerRouter = 2;  //!< p
    unsigned globalPerRouter = 1; //!< h
    /** Base switch configuration; ports is overridden to
     * p + (a-1) + h. */
    SwitchParams switchParams{};
};

/** A built multi-switch fabric: hosts plus its layer structure. */
struct Topology {
    std::string name;
    unsigned groups = 0; //!< fat-tree pods / dragonfly groups

    std::vector<Adapter *> hosts;
    /** Group (pod) id of hosts[i]; group-local traffic stays here. */
    std::vector<unsigned> hostGroup;

    /** Host-facing switches: fat-tree edge stage / all dragonfly
     * routers, in host order (hosts i*perEdge..(i+1)*perEdge attach
     * to edge[i]). */
    std::vector<Switch *> edge;
    /** Fat-tree aggregation stage (empty for dragonfly). */
    std::vector<Switch *> aggregation;
    /** Fat-tree core stage (empty for dragonfly). */
    std::vector<Switch *> core;

    std::size_t
    switchCount() const
    {
        return edge.size() + aggregation.size() + core.size();
    }
};

/** @{ Closed-form component counts (tests pin the builders to
 * these). Links are unidirectional Link objects: two per wired
 * pair. */
std::size_t fatTreeHostCount(unsigned k);
std::size_t fatTreeSwitchCount(unsigned k);
std::size_t fatTreeLinkCount(unsigned k);
std::size_t dragonflyGroupCount(const DragonflyParams &p);
std::size_t dragonflyHostCount(const DragonflyParams &p);
std::size_t dragonflySwitchCount(const DragonflyParams &p);
std::size_t dragonflyLinkCount(const DragonflyParams &p);
/** @} */

/** @{ Shape validation; throws std::invalid_argument on a bad
 * parameter set. */
void validateFatTree(const FatTreeParams &p);
void validateDragonfly(const DragonflyParams &p);
/** @} */

/**
 * Build a k-ary fat-tree of @p S switches (Switch or a subclass such
 * as ActiveSwitch; @p extra is forwarded to every switch after the
 * params, e.g. one shared ActiveConfig). Creation order — per pod
 * its edge then aggregation switches, then the cores, then hosts pod
 * by pod — fixes every NodeId and name, and routes are computed.
 */
template <typename S = Switch, typename... Extra>
Topology
buildFatTree(Fabric &fabric, const FatTreeParams &p,
             const Extra &...extra)
{
    validateFatTree(p);
    const unsigned k = p.k;
    const unsigned m = k / 2;
    SwitchParams sp = p.switchParams;
    sp.ports = k;

    Topology topo;
    topo.name = "fattree k=" + std::to_string(k);
    topo.groups = k;

    for (unsigned pod = 0; pod < k; ++pod) {
        for (unsigned e = 0; e < m; ++e)
            topo.edge.push_back(&fabric.addSwitch<S>(sp, extra...));
        for (unsigned a = 0; a < m; ++a)
            topo.aggregation.push_back(
                &fabric.addSwitch<S>(sp, extra...));
    }
    for (unsigned c = 0; c < m * m; ++c)
        topo.core.push_back(&fabric.addSwitch<S>(sp, extra...));

    for (unsigned pod = 0; pod < k; ++pod) {
        for (unsigned e = 0; e < m; ++e)
            for (unsigned a = 0; a < m; ++a)
                fabric.connectSwitches(*topo.edge[pod * m + e], m + a,
                                       *topo.aggregation[pod * m + a],
                                       e);
        for (unsigned a = 0; a < m; ++a)
            for (unsigned j = 0; j < m; ++j)
                fabric.connectSwitches(*topo.aggregation[pod * m + a],
                                       m + j, *topo.core[a * m + j],
                                       pod);
    }

    for (unsigned pod = 0; pod < k; ++pod)
        for (unsigned e = 0; e < m; ++e)
            for (unsigned hp = 0; hp < m; ++hp) {
                Adapter &host = fabric.addAdapter(
                    "h" + std::to_string(topo.hosts.size()));
                fabric.connect(*topo.edge[pod * m + e], hp, host);
                topo.hosts.push_back(&host);
                topo.hostGroup.push_back(pod);
            }

    fabric.computeRoutes();
    return topo;
}

/**
 * Build a balanced dragonfly of @p S switches. Creation order —
 * routers group by group, then hosts group by group — fixes every
 * NodeId and name, and routes are computed.
 */
template <typename S = Switch, typename... Extra>
Topology
buildDragonfly(Fabric &fabric, const DragonflyParams &p,
               const Extra &...extra)
{
    validateDragonfly(p);
    const unsigned a = p.routersPerGroup;
    const unsigned ph = p.hostsPerRouter;
    const unsigned h = p.globalPerRouter;
    const unsigned g = a * h + 1;
    SwitchParams sp = p.switchParams;
    sp.ports = ph + (a - 1) + h;

    Topology topo;
    topo.name = "dragonfly a=" + std::to_string(a) +
                " p=" + std::to_string(ph) + " h=" + std::to_string(h);
    topo.groups = g;

    for (unsigned gi = 0; gi < g; ++gi)
        for (unsigned r = 0; r < a; ++r)
            topo.edge.push_back(&fabric.addSwitch<S>(sp, extra...));
    const auto router = [&](unsigned gi, unsigned r) -> Switch & {
        return *topo.edge[gi * a + r];
    };

    // Local complete graph: router r's port toward peer q skips its
    // own index, so every router uses ports [p, p+a-1) in q order.
    const auto localPort = [&](unsigned r, unsigned q) {
        return ph + (q < r ? q : q - 1);
    };
    for (unsigned gi = 0; gi < g; ++gi)
        for (unsigned r = 0; r < a; ++r)
            for (unsigned q = r + 1; q < a; ++q)
                fabric.connectSwitches(router(gi, r), localPort(r, q),
                                       router(gi, q), localPort(q, r));

    // One global link per group pair (consecutive arrangement).
    const unsigned gbase = ph + (a - 1);
    for (unsigned gi = 0; gi < g; ++gi)
        for (unsigned gj = gi + 1; gj < g; ++gj) {
            const unsigned ci = gj - gi - 1;
            const unsigned cj = g - (gj - gi) - 1;
            fabric.connectSwitches(router(gi, ci / h),
                                   gbase + ci % h,
                                   router(gj, cj / h),
                                   gbase + cj % h);
        }

    for (unsigned gi = 0; gi < g; ++gi)
        for (unsigned r = 0; r < a; ++r)
            for (unsigned hp = 0; hp < ph; ++hp) {
                Adapter &host = fabric.addAdapter(
                    "h" + std::to_string(topo.hosts.size()));
                fabric.connect(router(gi, r), hp, host);
                topo.hosts.push_back(&host);
                topo.hostGroup.push_back(gi);
            }

    fabric.computeRoutes();
    return topo;
}

} // namespace san::net

#endif // SAN_NET_TOPOLOGY_HH
