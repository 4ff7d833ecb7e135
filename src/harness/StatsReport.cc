#include "harness/StatsReport.hh"

#include <string>

#include "fault/FaultPlan.hh"
#include "obs/Telemetry.hh"

namespace san::harness {

namespace {

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

} // namespace

void
dumpClusterStatsJson(obs::JsonWriter &json, apps::Cluster &cluster)
{
    const apps::RunStats &run = cluster.stats();
    json.beginObject();
    json.kv("execTimePs", run.execTime);
    json.kv("fingerprint", run.fingerprint);

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
    json.key("handlers").beginArray();
    for (const apps::HandlerCpuProfile &p : run.handlerProfiles) {
        json.beginObject();
        json.kv("id", static_cast<std::uint64_t>(p.id));
        json.kv("name", p.name);
        json.kv("invocations", p.invocations);
        json.kv("chunks", p.chunks);
        json.kv("bytes", p.bytes);
        json.kv("busyTicks", p.busyTicks);
        json.kv("stallTicks", p.stallTicks);
        json.kv("busyCycles", p.busyCycles);
        json.kv("cyclesPerByte", p.cyclesPerByte);
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
    if (const apps::FaultStats &f = run.faults; f.active) {
        json.key("fault").beginObject();
        json.kv("injected", f.injected);
        for (unsigned k = 1; k < fault::faultKindCount; ++k)
            if (f.injectedByKind[k] != 0)
                json.kv(std::string("injected.") +
                            fault::faultKindName(
                                static_cast<fault::FaultKind>(k)),
                        f.injectedByKind[k]);
        json.key("net").beginObject();
        json.kv("retransmits", f.retransmits);
        json.kv("timeouts", f.timeouts);
        json.kv("crcDrops", f.crcDrops);
        json.kv("dupDrops", f.dupDrops);
        json.kv("oooDrops", f.oooDrops);
        json.kv("controlDrops", f.controlDrops);
        json.kv("acksSent", f.acksSent);
        json.kv("nacksSent", f.nacksSent);
        json.kv("flowAborts", f.flowAborts);
        json.endObject();
        json.key("switch").beginObject();
        json.kv("failovers", f.failovers);
        json.kv("droppedPackets", f.switchDrops);
        json.endObject();
        json.key("io").beginObject();
        json.kv("retries", f.ioRetries);
        json.kv("errors", f.ioErrors);
        json.kv("spikes", f.ioSpikes);
        json.endObject();
        json.key("links").beginObject();
        json.kv("packetsCorrupted", f.packetsCorrupted);
        json.kv("creditsLost", f.creditsLost);
        json.endObject();
        json.endObject();
    }

    // The telemetry object only exists when --telemetry armed the
    // collector, keeping plain stats JSON byte-identical to the seed
    // goldens.
    if (const obs::TelemetryStats &t = run.telemetry; t.active) {
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
        const auto histogram = [&json](const std::string &name,
                                       const obs::LatencyHistogram &h) {
            json.key(name);
            dumpLatencyHistJson(json, h);
        };
        json.key("stages").beginObject();
        t.forEachStage(histogram);
        json.endObject();
        json.key("hops").beginObject();
        t.forEachHop(histogram);
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

    // The lb object only exists when a balancer drove the run,
    // keeping every other workload's stats JSON byte-identical.
    if (const apps::LbStats &c = run.lb; c.active) {
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
        json.kv("flowsLive", c.flowsTracked);
        json.kv("tableCapacity", c.tableCapacity);
        json.kv("tableBytes", c.tableBytes);
        json.kv("hotBytes", c.hotBytes);
        json.kv("backendsAlive", c.backendsAlive);
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
