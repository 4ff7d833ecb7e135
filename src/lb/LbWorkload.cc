#include "lb/LbWorkload.hh"

#include <algorithm>

#include "obs/Metrics.hh"

namespace san::lb {

namespace {

/**
 * One backend's application loop: service every delivered packet.
 * Runs forever; suspended at simulation end like Host::demux.
 */
sim::Task
backendDrain(host::Host &h, unsigned b, std::uint64_t service_instr,
             bool record, LbRunResult &res)
{
    for (;;) {
        net::Message msg = co_await h.appQueue().pop();
        co_await h.cpu().compute(service_instr);
        ++res.backendDelivered[b];
        if (record)
            res.deliveredBy[net::flowTagId(msg.tag)] |= 1ull << b;
    }
}

/** Active mode: the lb host services whatever the switch punted. */
sim::Task
puntDrain(host::Host &h, std::uint64_t punt_instr, LbRunResult &res)
{
    for (;;) {
        net::Message msg = co_await h.appQueue().pop();
        (void)msg;
        co_await h.cpu().compute(punt_instr);
        ++res.puntArrivals;
    }
}

} // namespace

LbRunResult
runLb(apps::Mode mode, const LbWorkloadParams &params)
{
    LbWorkloadParams p = params;
    const unsigned S = p.senders;
    const unsigned B = p.backends;

    apps::ClusterParams cp;
    cp.hosts = S + B + 1;
    cp.storageNodes = 0;
    cp.switchPorts =
        p.switchPorts != 0 ? p.switchPorts : cp.hosts + 1;
    cp.active.cpus = p.switchCpus;
    cp.run = p.run;
    apps::Cluster cluster(cp);

    const unsigned lbHostIdx = S + B;
    std::vector<net::NodeId> backendNodes;
    backendNodes.reserve(B);
    for (unsigned b = 0; b < B; ++b)
        backendNodes.push_back(cluster.host(S + b).id());

    p.lb.backends = B;
    p.lb.tupleSeed = p.churn.seed;
    LoadBalancer balancer(p.lb, backendNodes,
                          cluster.host(lbHostIdx).id(), p.run.faults);
    globalBalancer() = &balancer;

    // Occupancy / punt / lookup timelines for --metrics-csv. The
    // Cluster constructor re-registered the component gauges just
    // above; columns latch at the first row, so appending here is
    // safe.
    if (obs::IntervalSampler *sampler = p.run.sampler) {
        obs::MetricsRegistry &m = sampler->registry();
        m.add("lb.flows", obs::GaugeKind::Gauge, [&balancer] {
            return static_cast<double>(balancer.table().live());
        });
        m.add("lb.occupancy", obs::GaugeKind::Gauge, [&balancer] {
            return static_cast<double>(balancer.table().live()) /
                   static_cast<double>(balancer.table().capacity());
        });
        m.add("lb.lookups", obs::GaugeKind::Rate, [&balancer] {
            return static_cast<double>(balancer.counters().lookups);
        });
        m.add("lb.punts", obs::GaugeKind::Rate, [&balancer] {
            return static_cast<double>(balancer.counters().punts);
        });
    }

    net::FlowChurnParams churn = p.churn;
    churn.active = apps::isActive(mode);
    // Active packets terminate at the switch (Switch::receive only
    // hands dst==self to the active layer); plain packets go to the
    // lb host, the software baseline.
    churn.dst = churn.active ? cluster.sw().id()
                             : cluster.host(lbHostIdx).id();
    churn.handlerId = kLbHandlerId;
    churn.handlerCpus = p.switchCpus;
    if (churn.spacing == 0) {
        // Pace each sender so the aggregate stays within the slowest
        // data plane's service rate (the host baseline, bounded by
        // its table misses): ~500 ns of service per packet across
        // `senders` competing pumps.
        churn.spacing = sim::ns(500) * S;
    }

    std::vector<net::Adapter *> senders;
    senders.reserve(S);
    for (unsigned s = 0; s < S; ++s)
        senders.push_back(&cluster.host(s).hca());
    net::FlowChurnGen gen(cluster.sim(), senders, churn);

    LbRunResult res;
    res.backendDelivered.assign(B, 0);

    if (apps::isActive(mode)) {
        cluster.sw().registerHandler(kLbHandlerId, "lb",
                                     balancer.makeHandler());
        cluster.sim().spawn(puntDrain(cluster.host(lbHostIdx),
                                      p.lb.puntInstructions, res));
    } else {
        cluster.sim().spawn(
            balancer.hostDrain(cluster.host(lbHostIdx)));
    }
    for (unsigned b = 0; b < B; ++b)
        cluster.sim().spawn(backendDrain(
            cluster.host(S + b), b, p.backendServiceInstructions,
            p.recordDeliveries, res));

    gen.start();
    res.stats = cluster.collect(mode);
    balancer.fillStats(res.stats.lb);
    res.gen = gen.counts();
    globalBalancer() = nullptr;
    return res;
}

} // namespace san::lb
