#include "harness/StatsReport.hh"

#include <string>

#include "fault/FaultPlan.hh"
#include "fault/Reliable.hh"
#include "lb/LoadBalancer.hh"
#include "obs/Telemetry.hh"

namespace san::harness {

namespace {

/**
 * Sum one reliable-delivery counter over every endpoint engine in the
 * cluster (host HCAs, storage TCAs, the switch itself).
 */
template <typename Getter>
std::uint64_t
sumReliable(apps::Cluster &cluster, Getter get)
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < cluster.hostCount(); ++i)
        if (const auto *rel = cluster.host(i).hca().reliable())
            total += get(*rel);
    for (unsigned i = 0; i < cluster.storageCount(); ++i)
        if (const auto *rel = cluster.storage(i).tca().reliable())
            total += get(*rel);
    if (const auto *rel = cluster.sw().reliable())
        total += get(*rel);
    return total;
}

void
dumpCacheJson(obs::JsonWriter &json, mem::Cache &c)
{
    json.beginObject();
    json.kv("hits", c.hits());
    json.kv("misses", c.misses());
    json.kv("missRate", c.missRate());
    json.kv("writebacks", c.writebacks());
    if (c.params().classifyMisses) {
        json.kv("coldMisses", c.coldMisses());
        json.kv("capacityMisses", c.capacityMisses());
        json.kv("conflictMisses", c.conflictMisses());
    }
    json.endObject();
}

void
dumpTlbJson(obs::JsonWriter &json, mem::Tlb &t)
{
    json.beginObject();
    json.kv("hits", t.hits());
    json.kv("misses", t.misses());
    json.endObject();
}

/** One latency histogram as {samples, minPs, maxPs, p50Ps ...}. */
void
dumpLatencyHistJson(obs::JsonWriter &json,
                    const obs::LatencyHistogram &h)
{
    json.beginObject();
    json.kv("samples", h.samples());
    json.kv("minPs", h.min());
    json.kv("maxPs", h.max());
    json.kv("p50Ps", h.percentile(5000));
    json.kv("p90Ps", h.percentile(9000));
    json.kv("p99Ps", h.percentile(9900));
    json.kv("p999Ps", h.percentile(9990));
    json.endObject();
}

} // namespace

void
dumpMemoryStatsJson(obs::JsonWriter &json, mem::MemorySystem &ms)
{
    json.beginObject();
    json.key("l1i");
    dumpCacheJson(json, ms.l1i());
    json.key("l1d");
    dumpCacheJson(json, ms.l1d());
    if (ms.l2()) {
        json.key("l2");
        dumpCacheJson(json, *ms.l2());
    }
    json.key("itlb");
    dumpTlbJson(json, ms.itlb());
    json.key("dtlb");
    dumpTlbJson(json, ms.dtlb());
    json.key("dram").beginObject();
    json.kv("pageHits", ms.dram().pageHits());
    json.kv("pageMisses", ms.dram().pageMisses());
    json.kv("bytes", ms.dram().bytesTransferred());
    json.endObject();
    json.kv("stallTicks", ms.stallTicks());
    json.endObject();
}

void
dumpClusterStatsJson(obs::JsonWriter &json, apps::Cluster &cluster)
{
    json.beginObject();
    json.kv("execTimePs", cluster.sim().now());
    json.kv("fingerprint", cluster.fingerprint().value());

    json.key("hosts").beginArray();
    for (unsigned i = 0; i < cluster.hostCount(); ++i) {
        auto &h = cluster.host(i);
        json.beginObject();
        json.kv("name", h.name());
        json.key("cpu").beginObject();
        json.kv("busyTicks", h.cpu().busyTicks());
        json.kv("stallTicks", h.cpu().stallTicks());
        json.endObject();
        json.key("mem");
        dumpMemoryStatsJson(json, h.cpu().memory());
        json.key("hca").beginObject();
        json.kv("bytesSent", h.hca().bytesSent());
        json.kv("bytesReceived", h.hca().bytesReceived());
        json.kv("messagesSent", h.hca().messagesSent());
        json.kv("messagesReceived", h.hca().messagesReceived());
        json.endObject();
        json.endObject();
    }
    json.endArray();

    auto &sw = cluster.sw();
    json.key("switch").beginObject();
    json.kv("name", sw.name());
    json.kv("packetsRouted", sw.packetsRouted());
    json.kv("packetsLocal", sw.packetsLocal());
    json.kv("handlersInvoked", sw.handlersInvoked());
    json.kv("chunksStaged", sw.chunksStaged());
    json.kv("dispatchStalls", sw.dispatchStalls());
    // Key only present when packets were dropped, so fault-free runs
    // stay byte-identical to the seed goldens.
    if (sw.droppedPackets() != 0)
        json.kv("droppedPackets", sw.droppedPackets());
    // Object only present under non-default queueing policies so the
    // seed goldens stay byte-identical.
    if (!sw.policy().isPassthrough()) {
        const auto &pc = sw.policy().counters();
        json.key("policy").beginObject();
        json.kv("name", sw.policy().name());
        json.kv("admitted", pc.admitted);
        json.kv("forwarded", pc.forwarded);
        json.kv("holBlocked", pc.holBlocked);
        json.kv("grants", pc.grants);
        json.kv("arbRounds", pc.arbRounds);
        json.kv("peakOccupancy", pc.peakOccupancy);
        json.kv("maxGrantWaitRounds",
                sw.policy().maxGrantWaitRounds());
        json.endObject();
    }
    json.key("buffers").beginObject();
    json.kv("allocations", sw.buffers().allocations());
    json.kv("peakInUse", sw.buffers().peakInUse());
    json.kv("allocationFailures", sw.buffers().allocationFailures());
    json.endObject();
    json.key("cpus").beginArray();
    for (unsigned i = 0; i < sw.cpuCount(); ++i) {
        json.beginObject();
        json.kv("busyTicks", sw.cpu(i).busyTicks());
        json.kv("stallTicks", sw.cpu(i).stallTicks());
        json.key("atb").beginObject();
        json.kv("mappings", sw.atb(i).mappings());
        json.kv("conflicts", sw.atb(i).conflicts());
        json.endObject();
        json.key("mem");
        dumpMemoryStatsJson(json, sw.cpu(i).memory());
        json.endObject();
    }
    json.endArray();
    const sim::Tick sp_cycle =
        sim::Frequency(sw.config().cpuHz).period();
    json.key("handlers").beginArray();
    for (const auto &[id, p] : sw.handlerProfiles()) {
        const std::uint64_t cycles = p.busyTicks / sp_cycle;
        json.beginObject();
        json.kv("id", static_cast<std::uint64_t>(p.id));
        json.kv("name", p.name);
        json.kv("invocations", p.invocations);
        json.kv("chunks", p.chunks);
        json.kv("bytes", p.bytes);
        json.kv("busyTicks", p.busyTicks);
        json.kv("stallTicks", p.stallTicks);
        json.kv("busyCycles", cycles);
        json.kv("cyclesPerByte",
                p.bytes > 0 ? static_cast<double>(cycles) /
                                  static_cast<double>(p.bytes)
                            : 0.0);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    json.key("storage").beginArray();
    for (unsigned i = 0; i < cluster.storageCount(); ++i) {
        auto &s = cluster.storage(i);
        json.beginObject();
        json.kv("requestsServed", s.requestsServed());
        json.key("disk").beginObject();
        json.kv("bytesRead", s.disks().bytesRead());
        json.kv("seeks", s.disks().seeks());
        json.endObject();
        json.key("scsi").beginObject();
        json.kv("bytes", s.bus().bytesTransferred());
        json.kv("transactions", s.bus().transactions());
        json.endObject();
        json.endObject();
    }
    json.endArray();

    // The fault object only exists under a fault plan, keeping
    // fault-free stats JSON byte-identical to the seed goldens.
    if (const fault::FaultPlan *plan = cluster.sim().context().faults) {
        const auto sum = [&cluster](auto get) {
            return sumReliable(cluster, get);
        };
        json.key("fault").beginObject();
        json.kv("injected", plan->injected());
        for (unsigned k = 1; k < fault::faultKindCount; ++k) {
            const auto kind = static_cast<fault::FaultKind>(k);
            if (plan->injectedOf(kind) != 0)
                json.kv(std::string("injected.") +
                            fault::faultKindName(kind),
                        plan->injectedOf(kind));
        }
        json.key("net").beginObject();
        json.kv("retransmits",
                sum([](const fault::ReliableChannel &r) {
                    return r.retransmits();
                }));
        json.kv("timeouts", sum([](const fault::ReliableChannel &r) {
                    return r.timeouts();
                }));
        json.kv("crcDrops", sum([](const fault::ReliableChannel &r) {
                    return r.crcDrops();
                }));
        json.kv("dupDrops", sum([](const fault::ReliableChannel &r) {
                    return r.dupDrops();
                }));
        json.kv("oooDrops", sum([](const fault::ReliableChannel &r) {
                    return r.oooDrops();
                }));
        json.kv("controlDrops",
                sum([](const fault::ReliableChannel &r) {
                    return r.controlDrops();
                }));
        json.kv("acksSent", sum([](const fault::ReliableChannel &r) {
                    return r.acksSent();
                }));
        json.kv("nacksSent", sum([](const fault::ReliableChannel &r) {
                    return r.nacksSent();
                }));
        json.kv("flowAborts", sum([](const fault::ReliableChannel &r) {
                    return r.aborts();
                }));
        json.endObject();
        json.key("switch").beginObject();
        json.kv("failovers", cluster.sw().handlerFailovers());
        json.kv("droppedPackets", cluster.sw().droppedPackets());
        json.endObject();
        json.key("io").beginObject();
        std::uint64_t io_retries = 0, io_errors = 0, io_spikes = 0;
        for (unsigned i = 0; i < cluster.storageCount(); ++i) {
            io_retries += cluster.storage(i).ioRetries();
            io_errors += cluster.storage(i).ioErrors();
            io_spikes += cluster.storage(i).ioSpikes();
        }
        json.kv("retries", io_retries);
        json.kv("errors", io_errors);
        json.kv("spikes", io_spikes);
        json.endObject();
        json.key("links").beginObject();
        std::uint64_t corrupted = 0, credits_lost = 0;
        for (const auto &link : cluster.fabric().links()) {
            corrupted += link->packetsCorrupted();
            credits_lost += link->creditsLost();
        }
        json.kv("packetsCorrupted", corrupted);
        json.kv("creditsLost", credits_lost);
        json.endObject();
        json.endObject();
    }

    // The telemetry object only exists when --telemetry armed the
    // collector, keeping plain stats JSON byte-identical to the seed
    // goldens. The fold ran in Cluster::collect just before the
    // observer fired, so lastRun() describes this run.
    if (const obs::Telemetry *tel = cluster.sim().context().telemetry) {
        const obs::TelemetryStats &t = tel->lastRun();
        json.key("telemetry").beginObject();
        json.kv("sampleRate", t.sampleRate);
        json.kv("recordsSampled", t.recordsSampled);
        json.kv("recordsDelivered", t.recordsDelivered);
        json.kv("recordsInFlight", t.recordsInFlight);
        json.kv("retransmitsSampled", t.retransmitsSampled);
        json.kv("stampsDropped", t.stampsDropped);
        json.kv("packetsObserved", t.packetsObserved);
        json.kv("bytesObserved", t.bytesObserved);
        // Only populated (flow class, stage) cells appear: keys stay
        // stable across repeats because the fold is deterministic.
        json.key("stages").beginObject();
        for (std::size_t fc = 0; fc < obs::kFlowClassCount; ++fc) {
            for (std::size_t s = 0; s < obs::kStageCount; ++s) {
                const auto &h =
                    t.stageHist(static_cast<obs::FlowClass>(fc),
                                static_cast<obs::Stage>(s));
                if (h.samples() == 0)
                    continue;
                json.key(std::string(obs::flowClassName(
                             static_cast<obs::FlowClass>(fc))) +
                         "." +
                         obs::stageName(static_cast<obs::Stage>(s)));
                dumpLatencyHistJson(json, h);
            }
        }
        json.endObject();
        json.key("hops").beginObject();
        for (std::size_t fc = 0; fc < obs::kFlowClassCount; ++fc) {
            for (std::size_t hi = 0; hi < obs::kMaxTelemetryHops;
                 ++hi) {
                for (std::size_t s = 0; s < obs::kHopStageCount;
                     ++s) {
                    const auto &h = t.hopHist(
                        static_cast<obs::FlowClass>(fc), hi,
                        static_cast<obs::HopStage>(s));
                    if (h.samples() == 0)
                        continue;
                    json.key(
                        std::string(obs::flowClassName(
                            static_cast<obs::FlowClass>(fc))) +
                        ".hop" + std::to_string(hi) + "." +
                        obs::hopStageName(
                            static_cast<obs::HopStage>(s)));
                    dumpLatencyHistJson(json, h);
                }
            }
        }
        json.endObject();
        json.key("topByVolume").beginArray();
        for (const auto &f : t.topByVolume) {
            json.beginObject();
            json.kv("src", static_cast<std::uint64_t>(f.src));
            json.kv("dst", static_cast<std::uint64_t>(f.dst));
            json.kv("bytes", f.bytes);
            json.kv("maxError", f.error);
            json.endObject();
        }
        json.endArray();
        json.key("worstLatency").beginArray();
        for (const auto &f : t.worstLatency) {
            json.beginObject();
            json.kv("src", static_cast<std::uint64_t>(f.src));
            json.kv("dst", static_cast<std::uint64_t>(f.dst));
            json.kv("samples", f.samples);
            json.kv("worstPs", f.worst);
            json.kv("meanPs", f.mean);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    // The lb object only exists while a balancer drives the run,
    // keeping every other workload's stats JSON byte-identical.
    if (const lb::LoadBalancer *bal = lb::globalBalancer()) {
        const apps::LbStats &c = bal->counters();
        json.key("lb").beginObject();
        json.kv("lookups", c.lookups);
        json.kv("hotHits", c.hotHits);
        json.kv("tableHits", c.tableHits);
        json.kv("misses", c.misses);
        json.kv("inserts", c.inserts);
        json.kv("insertFailures", c.insertFailures);
        json.kv("removes", c.removes);
        json.kv("forwarded", c.forwarded);
        json.kv("punts", c.punts);
        json.kv("migrations", c.migrations);
        json.kv("peakFlows", c.peakFlows);
        json.kv("flowsLive", bal->table().live());
        json.kv("tableCapacity", bal->table().capacity());
        json.kv("tableBytes", bal->table().memoryBytes());
        json.kv("hotBytes", lb::ConnTable::hotBytes());
        json.kv("backendsAlive",
                static_cast<std::uint64_t>(bal->maglev().aliveCount()));
        if (c.backendDownEvents != 0 || c.backendUpEvents != 0) {
            json.kv("backendDownEvents", c.backendDownEvents);
            json.kv("backendUpEvents", c.backendUpEvents);
        }
        json.key("backendPackets").beginArray();
        for (const std::uint64_t n : c.backendPackets)
            json.value(n);
        json.endArray();
        json.endObject();
    }

    json.endObject();
}

} // namespace san::harness
