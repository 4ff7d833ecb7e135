#include "apps/Cluster.hh"

#include <cassert>

#include "fault/FaultPlan.hh"
#include "fault/Reliable.hh"
#include "obs/Metrics.hh"

namespace san::apps {

ClusterObserver &
clusterObserver()
{
    static ClusterObserver observer;
    return observer;
}

Cluster::Cluster(const ClusterParams &params)
    : params_(params), sim_(params.run),
      fabric_(sim_, params.link, params.adapter)
{
    assert(params.hosts + params.storageNodes <= params.switchPorts);
    sw_ = &fabric_.addSwitch<active::ActiveSwitch>(
        net::SwitchParams{params.switchPorts}, params.active);

    unsigned port = 0;
    for (unsigned i = 0; i < params.hosts; ++i) {
        hosts_.push_back(std::make_unique<host::Host>(
            sim_, "host" + std::to_string(i), fabric_, params.hostMem,
            params.os));
        fabric_.connect(*sw_, port++, hosts_.back()->hca());
    }
    for (unsigned i = 0; i < params.storageNodes; ++i) {
        auto &tca = fabric_.addAdapter("tca" + std::to_string(i));
        storage_.push_back(
            std::make_unique<io::StorageNode>(sim_, tca, params.storage));
        fabric_.connect(*sw_, port++, tca);
    }
    fabric_.computeRoutes();
    for (auto &h : hosts_)
        h->start();
    for (auto &s : storage_)
        s->start();

    // Threaded run: shard one-component-per-logical-process (the
    // single switch plus every adapter — a one-switch cluster has no
    // coarser cut that parallelizes anything). The server/demux
    // tasks started above stay on shard 0: they suspend on their
    // receive channels without scheduling events, and resume on
    // whichever shard pushes.
    if (params.threads > 1) {
        assert(params.run.sampler == nullptr &&
               "--metrics-csv requires --threads 1");
        fabric_.applyShardPlan(
            fabric_.planShards(1 + fabric_.adapters().size()));
    }
    shardedFp_.attach(sim_);

    // When the run has a sampler (bench --metrics-csv), point it at
    // this cluster: re-register every component's gauges (the
    // previous cluster is gone) and chain it in front of the
    // fingerprint observer. Without a sampler this is all skipped
    // and runs pay nothing.
    if (obs::IntervalSampler *sampler = params.run.sampler) {
        sampler->registry().clear();
        // Kernel first: queue depth / horizon / ladder occupancy
        // columns lead every timeline.
        obs::registerKernelGauges(sampler->registry(), sim_.events());
        for (auto &h : hosts_)
            h->registerMetrics(sampler->registry());
        sw_->registerMetrics(sampler->registry());
        for (unsigned i = 0; i < storageCount(); ++i)
            storage_[i]->registerMetrics(
                sampler->registry(), "storage" + std::to_string(i));
        for (const auto &link : fabric_.links())
            link->registerMetrics(sampler->registry());
        // Recovery timelines, only meaningful under a fault plan.
        if (params.run.faults != nullptr) {
            const auto recovery = [this, sampler](
                                      const char *name,
                                      std::uint64_t FaultStats::*tally) {
                sampler->registry().add(
                    name, obs::GaugeKind::Rate, [this, tally] {
                        return static_cast<double>(faultTally().*tally);
                    });
            };
            recovery("fault.injected", &FaultStats::injected);
            recovery("net.retransmits", &FaultStats::retransmits);
            recovery("switch.failovers", &FaultStats::failovers);
            recovery("io.retries", &FaultStats::ioRetries);
        }
        sampler->attach(sim_.events());
    }
}

void
Cluster::spawnOnHost(unsigned i, sim::Task task)
{
    sim::ShardGuard guard(sim_, fabric_.shardOf(hosts_.at(i)->hca()));
    sim_.spawn(std::move(task));
}

FaultStats
Cluster::faultTally() const
{
    FaultStats f;
    const fault::FaultPlan *plan = sim_.context().faults;
    if (plan == nullptr)
        return f;
    f.active = true;
    f.injected = plan->injected();
    for (unsigned k = 0; k < fault::faultKindCount; ++k)
        f.injectedByKind[k] =
            plan->injectedOf(static_cast<fault::FaultKind>(k));
    const auto fold = [&f](const fault::ReliableChannel *rel) {
        if (rel == nullptr)
            return;
        f.retransmits += rel->retransmits();
        f.timeouts += rel->timeouts();
        f.crcDrops += rel->crcDrops();
        f.dupDrops += rel->dupDrops();
        f.oooDrops += rel->oooDrops();
        f.controlDrops += rel->controlDrops();
        f.acksSent += rel->acksSent();
        f.nacksSent += rel->nacksSent();
        f.flowAborts += rel->aborts();
    };
    for (const auto &a : fabric_.adapters())
        fold(a->reliable());
    fold(sw_->reliable());
    f.failovers = sw_->handlerFailovers();
    f.switchDrops = sw_->droppedPackets();
    for (const auto &s : storage_) {
        f.ioRetries += s->ioRetries();
        f.ioErrors += s->ioErrors();
        f.ioSpikes += s->ioSpikes();
    }
    for (const auto &link : fabric_.links()) {
        f.packetsCorrupted += link->packetsCorrupted();
        f.creditsLost += link->creditsLost();
    }
    return f;
}

RunStats
Cluster::collect(Mode mode, const std::function<void(LbStats &)> &fillLb)
{
    const sim::Tick end = sim_.runSharded(params_.threads);
    if (obs::IntervalSampler *sampler = sim_.context().sampler)
        sampler->finishRun(end);
    RunStats &stats = stats_;
    stats.mode = mode;
    stats.execTime = end;
    stats.eventsExecuted = sim_.executedEvents();
    for (auto &h : hosts_) {
        stats.hosts.push_back(h->cpu().breakdown(end));
        stats.hostIoBytes += h->ioTrafficBytes();
    }
    if (isActive(mode)) {
        for (unsigned i = 0; i < sw_->cpuCount(); ++i)
            stats.switchCpus.push_back(sw_->cpu(i).breakdown(end));
        const sim::Tick cycle =
            sim::Frequency(params_.active.cpuHz).period();
        for (const auto &[id, p] : sw_->handlerProfiles()) {
            HandlerCpuProfile out;
            out.id = p.id;
            out.name = p.name;
            out.invocations = p.invocations;
            out.chunks = p.chunks;
            out.bytes = p.bytes;
            out.busyTicks = p.busyTicks;
            out.stallTicks = p.stallTicks;
            out.busyCycles = p.busyTicks / cycle;
            out.cyclesPerByte =
                p.bytes > 0 ? static_cast<double>(out.busyCycles) /
                                  static_cast<double>(p.bytes)
                            : 0.0;
            stats.handlerProfiles.push_back(std::move(out));
        }
    }

    // Recovery counters, only when a fault plan drove the run. They
    // are NOT folded into the fingerprint: the event stream already
    // captures fault timing, and keeping them out lets a fault-free
    // plan ("none:0") reproduce the no-plan fingerprint modulo the
    // protocol's own control traffic.
    stats.faults = faultTally();

    // Seed the stat fold with the deterministic per-shard stream
    // merge (DESIGN.md §14), then fold the end-of-run stat values on
    // top of the per-event stream so a run with identical timing but
    // different results still yields a different fingerprint.
    obs::RunFingerprint fingerprint;
    shardedFp_.combineInto(fingerprint);
    fingerprint.foldStat("execTime", static_cast<double>(end));
    fingerprint.foldStat("hostIoBytes",
                         static_cast<double>(stats.hostIoBytes));
    for (const auto &h : stats.hosts) {
        fingerprint.foldStat("host.busy", static_cast<double>(h.busy));
        fingerprint.foldStat("host.stall", static_cast<double>(h.stall));
    }
    for (const auto &s : stats.switchCpus) {
        fingerprint.foldStat("sp.busy", static_cast<double>(s.busy));
        fingerprint.foldStat("sp.stall", static_cast<double>(s.stall));
    }
    for (const auto &p : stats.handlerProfiles) {
        fingerprint.foldStat("handler.busy",
                             static_cast<double>(p.busyTicks));
        fingerprint.foldStat("handler.bytes",
                             static_cast<double>(p.bytes));
    }
    stats.fingerprint = fingerprint.value();

    // Fold the lineage records into their histograms now that the run
    // is quiescent. Like FaultStats, never fingerprinted: telemetry
    // observes the event stream without perturbing it.
    if (obs::Telemetry *tel = sim_.context().telemetry)
        stats.telemetry = tel->finishRun();
    if (fillLb)
        fillLb(stats.lb);

    if (clusterObserver())
        clusterObserver()(*this, mode);
    return stats;
}

} // namespace san::apps
