#include "obs/Telemetry.hh"

#include <algorithm>
#include <map>

#include "sim/Simulation.hh"

namespace san::obs {

const char *
flowClassName(FlowClass fc)
{
    switch (fc) {
    case FlowClass::Data:
        return "data";
    case FlowClass::Active:
        return "active";
    case FlowClass::Control:
        return "control";
    }
    return "?";
}

const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::TxQueue:
        return "txQueue";
    case Stage::PolicyWait:
        return "policyWait";
    case Stage::SwitchQueue:
        return "switchQueue";
    case Stage::HandlerCpu:
        return "handlerCpu";
    case Stage::EndToEnd:
        return "endToEnd";
    case Stage::LbLookup:
        return "lbLookup";
    }
    return "?";
}

const char *
hopStageName(HopStage s)
{
    switch (s) {
    case HopStage::Residency:
        return "residency";
    case HopStage::PolicyWait:
        return "policyWait";
    case HopStage::QueueWait:
        return "queueWait";
    }
    return "?";
}

void
Telemetry::enableShards(std::size_t shards)
{
    slices_.clear();
    for (std::size_t s = 0; s < shards; ++s)
        slices_.push_back(std::make_unique<Slice>());
}

std::size_t
Telemetry::sliceIndex() const
{
    const std::size_t s = sim::Simulation::currentShard();
    return s < slices_.size() ? s : 0;
}

std::uint64_t
Telemetry::recordsLive() const
{
    std::uint64_t n = records_.size();
    for (const auto &sl : slices_)
        n += sl->records.size();
    return n;
}

std::shared_ptr<TelemetryRecord>
Telemetry::sample(std::uint32_t src, std::uint32_t dst, FlowClass fc,
                  sim::Tick now)
{
    if (rate_ == 0)
        return nullptr;
    // Shard-local 1-in-N over this shard's own packet stream; uids
    // stripe by shard so the merged registry stays unique and
    // reproducible: uid = k * shards + shard + 1.
    const std::size_t s = sliceIndex();
    Slice &sl = *slices_[s];
    if (sl.seen++ % rate_ != 0)
        return nullptr;
    auto rec = std::make_shared<TelemetryRecord>();
    rec->uid = sl.sampled++ * slices_.size() + s + 1;
    rec->flowClass = fc;
    rec->src = src;
    rec->dst = dst;
    rec->bornAt = now;
    sl.records.push_back(rec);
    return rec;
}

TelemetryStats
Telemetry::finishRun()
{
    // Fold the per-shard slices first: counters and sketches merge
    // in shard order, records interleave by their striped uid. Both
    // orders depend only on the partition, so the folded stats are
    // identical for any worker-thread count.
    for (auto &sl : slices_) {
        packetsObserved_ += sl->packetsObserved;
        bytesObserved_ += sl->bytesObserved;
        sketch_.merge(sl->sketch);
        records_.insert(records_.end(), sl->records.begin(),
                        sl->records.end());
    }
    enableShards(slices_.size()); // a repeat finishRun folds nothing twice
    std::sort(records_.begin(), records_.end(),
              [](const auto &a, const auto &b) { return a->uid < b->uid; });

    TelemetryStats out;
    out.active = true;
    out.sampleRate = rate_;
    out.packetsObserved = packetsObserved_;
    out.bytesObserved = bytesObserved_;

    struct FlowLat {
        std::uint64_t samples = 0;
        sim::Tick worst = 0;
        std::uint64_t sum = 0;
    };
    std::map<std::uint64_t, FlowLat> flows;

    // Records fold in creation (uid) order: byte-stable output.
    for (const auto &rec : records_) {
        ++out.recordsSampled;
        out.retransmitsSampled += rec->retransmits;
        out.stampsDropped += rec->stampsDropped;
        if (!rec->delivered) {
            ++out.recordsInFlight;
            continue;
        }
        ++out.recordsDelivered;
        const auto fc = static_cast<std::size_t>(rec->flowClass);
        const sim::Tick e2e = rec->deliveredAt > rec->bornAt
                                  ? rec->deliveredAt - rec->bornAt
                                  : 0;
        auto &stages = out.stage[fc];
        stages[static_cast<std::size_t>(Stage::EndToEnd)].add(e2e);
        stages[static_cast<std::size_t>(Stage::TxQueue)].add(
            rec->stage[static_cast<std::size_t>(Stage::TxQueue)]);
        stages[static_cast<std::size_t>(Stage::PolicyWait)].add(
            rec->stage[static_cast<std::size_t>(Stage::PolicyWait)]);
        stages[static_cast<std::size_t>(Stage::SwitchQueue)].add(
            rec->stage[static_cast<std::size_t>(Stage::SwitchQueue)]);
        // Handler CPU only means something for packets a handler
        // actually processed; folding zeros for pure transit
        // traffic would bury the signal.
        const sim::Tick hcpu =
            rec->stage[static_cast<std::size_t>(Stage::HandlerCpu)];
        if (hcpu > 0)
            stages[static_cast<std::size_t>(Stage::HandlerCpu)].add(
                hcpu);
        // Same rule for lb lookups: only lb-handled packets carry one.
        const sim::Tick lbl =
            rec->stage[static_cast<std::size_t>(Stage::LbLookup)];
        if (lbl > 0)
            stages[static_cast<std::size_t>(Stage::LbLookup)].add(lbl);
        for (std::size_t h = 0; h < rec->hopCount; ++h) {
            const TelemetryHop &hop = rec->hops[h];
            auto &hh = out.hop[fc][h];
            hh[static_cast<std::size_t>(HopStage::Residency)].add(
                hop.egress - hop.ingress);
            hh[static_cast<std::size_t>(HopStage::PolicyWait)].add(
                hop.admitted - hop.ingress);
            hh[static_cast<std::size_t>(HopStage::QueueWait)].add(
                hop.egress - hop.admitted);
        }
        FlowLat &fl = flows[FlowSketch::keyOf(rec->src, rec->dst)];
        ++fl.samples;
        fl.worst = std::max(fl.worst, e2e);
        fl.sum += e2e;
    }

    for (const FlowSketch::Entry &e : sketch_.top(kTopFlows))
        out.topByVolume.push_back(TelemetryFlowVolume{
            static_cast<std::uint32_t>(e.key >> 32),
            static_cast<std::uint32_t>(e.key), e.bytes, e.error});

    std::vector<std::pair<std::uint64_t, FlowLat>> byLat(flows.begin(),
                                                         flows.end());
    std::sort(byLat.begin(), byLat.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.worst != b.second.worst)
                      return a.second.worst > b.second.worst;
                  return a.first < b.first;
              });
    if (byLat.size() > kTopFlows)
        byLat.resize(kTopFlows);
    for (const auto &[key, fl] : byLat)
        out.worstLatency.push_back(TelemetryFlowLatency{
            static_cast<std::uint32_t>(key >> 32),
            static_cast<std::uint32_t>(key), fl.samples, fl.worst,
            fl.samples ? fl.sum / fl.samples : 0});

    return out;
}

} // namespace san::obs
